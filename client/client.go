// Package client is the typed Go client for chopperd, built on the shared
// wire types in api. It covers every /v1 endpoint plus the ops endpoints,
// maps non-2xx responses to *APIError (carrying the status and any
// Retry-After hint), and exposes a raw-bytes recommend call for
// byte-identity checks across daemon restarts.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"chopper/api"
)

// APIError is a non-2xx chopperd response.
type APIError struct {
	// Status is the HTTP status code.
	Status int
	// Message is the server's error text.
	Message string
	// RetryAfter is the server's backoff hint (429 responses); zero when
	// absent. Honoring it keeps a loaded daemon stable under admission
	// control.
	RetryAfter time.Duration
}

// Error implements error.
func (e *APIError) Error() string {
	return fmt.Sprintf("chopperd: %d %s: %s", e.Status, http.StatusText(e.Status), e.Message)
}

// Client talks to one chopperd instance — or, in a fleet deployment, to a
// router with standby targets behind it.
type Client struct {
	// Base is the daemon's root URL, e.g. "http://127.0.0.1:7077".
	Base string
	// Fallbacks are tried in order when Base fails at the transport level
	// (connection refused, reset, timeout). API-level errors are never
	// failed over — they are the daemon's answer, not an outage.
	Fallbacks []string
	// HTTP is the underlying client (http.DefaultClient when nil).
	HTTP *http.Client
}

// New returns a client for the daemon at base.
func New(base string) *Client {
	return &Client{Base: base, HTTP: &http.Client{}}
}

// httpClient resolves the transport.
func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// do performs one request: query (when non-empty) is the encoded query
// string, body (when non-nil) is sent as JSON, and the raw response bytes
// are returned after status checking. Transport-level failures fail over
// through Fallbacks; the request body is marshaled once, so every attempt
// sends the identical payload.
func (c *Client) do(ctx context.Context, method, path, query string, body any) ([]byte, error) {
	var payload []byte
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return nil, fmt.Errorf("client: marshal request: %w", err)
		}
		payload = b
	}
	raw, err := c.doOnce(ctx, c.Base, method, path, query, payload)
	for _, base := range c.Fallbacks {
		if err == nil || !failsOver(ctx, err) {
			break
		}
		raw, err = c.doOnce(ctx, base, method, path, query, payload)
	}
	if err != nil {
		return nil, err
	}
	return raw, nil
}

// failsOver reports whether a failed attempt should move on to the next
// target: a transport failure does, the daemon's own answer (*APIError) or
// the caller giving up does not.
func failsOver(ctx context.Context, err error) bool {
	var apiErr *APIError
	return !errors.As(err, &apiErr) && ctx.Err() == nil
}

// maxExactBody caps the declared Content-Length a response body is read
// into with one up-front allocation; a larger or undeclared length grows
// the buffer as bytes arrive, so a bogus header cannot make the client
// allocate what the peer never sends.
const maxExactBody = 1 << 20

// readBody reads a response body whole.
func readBody(resp *http.Response) ([]byte, error) {
	n := resp.ContentLength
	if n < 0 || n > maxExactBody {
		return io.ReadAll(resp.Body)
	}
	raw := make([]byte, n)
	// A body cut short of its declared length fails here (io.ErrUnexpectedEOF).
	if _, err := io.ReadFull(resp.Body, raw); err != nil {
		return nil, err
	}
	return raw, nil
}

// doOnce performs one request against one target.
func (c *Client) doOnce(ctx context.Context, base, method, path, query string, payload []byte) ([]byte, error) {
	sep := ""
	if query != "" {
		sep = "?"
	}
	u := base + path + sep + query
	var rd io.Reader
	if payload != nil {
		rd = bytes.NewReader(payload)
	}
	req, err := http.NewRequestWithContext(ctx, method, u, rd)
	if err != nil {
		return nil, fmt.Errorf("client: build request: %w", err)
	}
	if payload != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return nil, fmt.Errorf("client: %s %s: %w", method, path, err)
	}
	defer func() {
		// Draining the body keeps the connection reusable; the read error
		// is irrelevant once the payload is in hand.
		_, _ = io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()
	}()
	raw, err := readBody(resp)
	if err != nil {
		return nil, fmt.Errorf("client: read response: %w", err)
	}
	if resp.StatusCode/100 != 2 {
		return nil, apiError(resp, raw)
	}
	return raw, nil
}

// apiError decodes a non-2xx response into *APIError.
func apiError(resp *http.Response, raw []byte) *APIError {
	e := &APIError{Status: resp.StatusCode, Message: string(bytes.TrimSpace(raw))}
	var body api.Error
	if json.Unmarshal(raw, &body) == nil && body.Error != "" {
		e.Message = body.Error
	}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		if secs, err := strconv.Atoi(ra); err == nil && secs > 0 {
			e.RetryAfter = time.Duration(secs) * time.Second
		}
	}
	return e
}

// getJSON is do + unmarshal.
func (c *Client) getJSON(ctx context.Context, method, path, query string, body, out any) error {
	raw, err := c.do(ctx, method, path, query, body)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(raw, out); err != nil {
		return fmt.Errorf("client: decode %s response: %w", path, err)
	}
	return nil
}

// Submit runs one workload job.
func (c *Client) Submit(ctx context.Context, req api.SubmitRequest) (*api.SubmitResponse, error) {
	var out api.SubmitResponse
	if err := c.getJSON(ctx, http.MethodPost, "/v1/jobs", "", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Train runs incremental profiling for a workload.
func (c *Client) Train(ctx context.Context, req api.TrainRequest) (*api.TrainResponse, error) {
	var out api.TrainResponse
	if err := c.getJSON(ctx, http.MethodPost, "/v1/train", "", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// recommendQuery builds the shared read-endpoint query string in
// url.Values.Encode's form: keys sorted, so inputBytes (when set) precedes
// workload.
func recommendQuery(workload string, inputBytes int64) string {
	w := url.QueryEscape(workload)
	if inputBytes <= 0 {
		return "workload=" + w
	}
	var n [20]byte
	return "inputBytes=" + string(strconv.AppendInt(n[:0], inputBytes, 10)) + "&workload=" + w
}

// Recommend fetches the tuned partition schemes for a workload.
func (c *Client) Recommend(ctx context.Context, workload string, inputBytes int64) (*api.RecommendResponse, error) {
	var out api.RecommendResponse
	if err := c.getJSON(ctx, http.MethodGet, "/v1/recommend", recommendQuery(workload, inputBytes), nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// RecommendRaw returns the exact response bytes of /v1/recommend — the
// durability checks compare these byte-for-byte across a daemon restart.
func (c *Client) RecommendRaw(ctx context.Context, workload string, inputBytes int64) ([]byte, error) {
	return c.do(ctx, http.MethodGet, "/v1/recommend", recommendQuery(workload, inputBytes), nil)
}

// Explain fetches the optimizer's per-stage reasoning as text.
func (c *Client) Explain(ctx context.Context, workload string, inputBytes int64) (string, error) {
	raw, err := c.do(ctx, http.MethodGet, "/v1/explain", recommendQuery(workload, inputBytes), nil)
	if err != nil {
		return "", err
	}
	return string(raw), nil
}

// Workloads lists the built-in workloads and their profile state.
func (c *Client) Workloads(ctx context.Context) (*api.WorkloadsResponse, error) {
	var out api.WorkloadsResponse
	if err := c.getJSON(ctx, http.MethodGet, "/v1/workloads", "", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Health fetches /healthz.
func (c *Client) Health(ctx context.Context) (*api.Health, error) {
	var out api.Health
	if err := c.getJSON(ctx, http.MethodGet, "/healthz", "", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Metrics fetches the Prometheus text exposition.
func (c *Client) Metrics(ctx context.Context) (string, error) {
	raw, err := c.do(ctx, http.MethodGet, "/metrics", "", nil)
	if err != nil {
		return "", err
	}
	return string(raw), nil
}
