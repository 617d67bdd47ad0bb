package harness

import (
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"
)

// procStat returns the machine's cumulative steal and total jiffies from
// the first line of /proc/stat (zeros where the file is missing): time a
// hypervisor ran someone else while this guest wanted the CPU.
func procStat() (steal, total uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		// guest and guest_nice (fields 9, 10) are already inside user/nice.
		if i < 8 {
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// spinMs times a fixed xorshift loop on every P at once: a speedometer for
// the machine itself, read right before and right after the timed section.
func spinMs() float64 {
	const iters = 20_000_000
	n := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	sums := make([]uint64, n)
	t0 := time.Now()
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			x := uint64(88172645463325252 + g)
			for i := 0; i < iters; i++ {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
			}
			sums[g] = x
		}(g)
	}
	wg.Wait()
	ms := float64(time.Since(t0).Nanoseconds()) / 1e6
	runtime.KeepAlive(sums) // the stores keep the loops from being optimised away
	return ms
}
