module chopper/bench

go 1.22

require chopper v0.0.0

replace chopper => ../
