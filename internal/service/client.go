package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"time"

	"react/internal/explore"
	"react/internal/obs"
)

// DefaultRequestTimeout bounds each HTTP request a Client issues unless
// WithRequestTimeout overrides it. Every request is individually bounded:
// a hung or stalled daemon fails the call instead of pinning it forever
// (Wait's polling loop then surfaces the error). The caller's context can
// always impose a shorter deadline.
const DefaultRequestTimeout = 30 * time.Second

// Client talks to a reactd server. Create with Dial; the zero value is not
// usable. A Client is safe for concurrent use.
type Client struct {
	base       string
	hc         *http.Client
	reqTimeout time.Duration // per-request bound; <= 0 = none
}

// DialOption configures a Client at Dial time.
type DialOption func(*Client)

// WithRequestTimeout sets the per-request timeout (DefaultRequestTimeout
// otherwise). Zero or negative means no per-request bound — only the
// caller's context limits a call.
func WithRequestTimeout(d time.Duration) DialOption {
	return func(c *Client) { c.reqTimeout = d }
}

// Dial validates the base URL ("http://host:port") and probes the server's
// /metrics endpoint to fail fast on a wrong address. It is
// DialContext(context.Background(), ...) for callers with no context of
// their own; anything holding a cancellable context should pass it through
// DialContext so an interrupted caller also abandons the probe.
func Dial(baseURL string, opts ...DialOption) (*Client, error) {
	return DialContext(context.Background(), baseURL, opts...)
}

// DialContext is Dial bounded by the caller's context: the liveness probe
// runs under ctx (plus the client's per-request timeout, so an unbounded
// context still cannot pin the dial on a stalled daemon).
func DialContext(ctx context.Context, baseURL string, opts ...DialOption) (*Client, error) {
	c, err := newPeerClient(baseURL, DefaultRequestTimeout)
	if err != nil {
		return nil, err
	}
	for _, o := range opts {
		o(c)
	}
	probeCtx := ctx
	if _, ok := ctx.Deadline(); !ok && c.reqTimeout <= 0 {
		// Neither the caller nor the per-request bound limits the probe:
		// fall back to the default so a stalled daemon cannot pin the dial.
		var cancel context.CancelFunc
		probeCtx, cancel = context.WithTimeout(ctx, DefaultRequestTimeout)
		defer cancel()
	}
	if _, err := c.Metrics(probeCtx); err != nil {
		return nil, fmt.Errorf("service: no reactd at %s: %w", c.base, err)
	}
	return c, nil
}

// newPeerClient builds a Client without the liveness probe — peers come
// and go, and cluster mode must start (and degrade gracefully) with a
// peer down, not refuse to.
func newPeerClient(baseURL string, timeout time.Duration) (*Client, error) {
	u, err := url.Parse(baseURL)
	if err != nil {
		return nil, fmt.Errorf("service: parsing %q: %w", baseURL, err)
	}
	if u.Scheme != "http" && u.Scheme != "https" {
		return nil, fmt.Errorf("service: %q: want an http(s) base URL", baseURL)
	}
	return &Client{base: strings.TrimRight(u.String(), "/"), hc: &http.Client{}, reqTimeout: timeout}, nil
}

// do issues a request and decodes the JSON response (or the error
// envelope) into out. Each request is bounded by the client's per-request
// timeout on top of (never instead of) the caller's context.
func (c *Client) do(ctx context.Context, method, path string, body, out any) error {
	if c.reqTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.reqTimeout)
		defer cancel()
	}
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return fmt.Errorf("service: encoding request: %w", err)
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	// Propagate the caller's span context (if any): the receiving server
	// parents the submission's root span under it, so cross-node work
	// stays one trace.
	if sc, ok := obs.SpanContextFromContext(ctx); ok {
		req.Header.Set(obs.TraceparentHeader, sc.Traceparent())
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return err
	}
	if resp.StatusCode >= 400 {
		var eb errorBody
		if json.Unmarshal(data, &eb) == nil && eb.Error != "" {
			return fmt.Errorf("service: %s %s: %s", method, path, eb.Error)
		}
		return fmt.Errorf("service: %s %s: HTTP %d", method, path, resp.StatusCode)
	}
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(data, out); err != nil {
		return fmt.Errorf("service: decoding %s %s response: %w", method, path, err)
	}
	return nil
}

// Scenarios lists the server's registry.
func (c *Client) Scenarios(ctx context.Context) ([]ScenarioInfo, error) {
	var out struct {
		Scenarios []ScenarioInfo `json:"scenarios"`
	}
	if err := c.do(ctx, http.MethodGet, "/scenarios", nil, &out); err != nil {
		return nil, err
	}
	return out.Scenarios, nil
}

// Metrics reads the server's counters and gauges from the JSON report
// (GET /metrics serves the same registry as Prometheus text).
func (c *Client) Metrics(ctx context.Context) (Metrics, error) {
	var m Metrics
	if err := c.do(ctx, http.MethodGet, "/metrics.json", nil, &m); err != nil {
		return nil, err
	}
	return m, nil
}

// TraceSpans reads the server's raw (node-local, flat) spans for a trace
// id — the cross-peer merge primitive behind the /trace view endpoints.
func (c *Client) TraceSpans(ctx context.Context, traceID string) (*TraceResponse, error) {
	return getResource[TraceResponse](ctx, c, "traces", traceID, "")
}

// getResource GETs one addressed resource — kind is the path collection
// ("runs", "sweeps", "explorations", "traces"), suffix "" for the resource
// itself or "/trace" for a view's assembled span tree — and decodes it
// into a fresh T.
func getResource[T any](ctx context.Context, c *Client, kind, id, suffix string) (*T, error) {
	var out T
	if err := c.do(ctx, http.MethodGet, "/"+kind+"/"+url.PathEscape(id)+suffix, nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// viewStatus is a submission status the shared Wait loop can read:
// RunStatus, SweepStatus or ExploreStatus.
type viewStatus interface {
	*RunStatus | *SweepStatus | *ExploreStatus
	state() (id, status, errMsg string)
}

func (st *RunStatus) state() (string, string, string)     { return st.ID, st.Status, st.Error }
func (st *SweepStatus) state() (string, string, string)   { return st.ID, st.Status, st.Error }
func (st *ExploreStatus) state() (string, string, string) { return st.ID, st.Status, st.Error }

// waitView is every handle's Wait: it polls until the view reaches a
// terminal state, starting from the submission response (nil when the
// handle was built from a bare id). A failed or cancelled view returns its
// final status alongside an error.
func waitView[S viewStatus](ctx context.Context, kind string, submitted S, poll func(context.Context) (S, error)) (S, error) {
	finish := func(st S) (S, error) {
		id, status, errMsg := st.state()
		if status != StatusDone {
			return st, fmt.Errorf("service: %s %s %s: %s", kind, id, status, errMsg)
		}
		return st, nil
	}
	if submitted != nil {
		if _, status, _ := submitted.state(); Terminal(status) {
			return finish(submitted)
		}
	}
	delay := 10 * time.Millisecond
	for {
		st, err := poll(ctx)
		if err != nil {
			return nil, err
		}
		if _, status, _ := st.state(); Terminal(status) {
			return finish(st)
		}
		select {
		case <-ctx.Done():
			return st, ctx.Err()
		case <-time.After(delay):
		}
		if delay < 500*time.Millisecond {
			delay += delay / 2
		}
	}
}

// RunAsync submits a run and returns a handle immediately; the server
// simulates in the background (or serves the result cache). Poll or Wait
// the handle for results.
func (c *Client) RunAsync(ctx context.Context, req RunRequest) (*RemoteRun, error) {
	var st RunStatus
	if err := c.do(ctx, http.MethodPost, "/runs", req, &st); err != nil {
		return nil, err
	}
	return &RemoteRun{c: c, ID: st.ID, Submitted: &st}, nil
}

// Run submits and waits: the synchronous convenience over RunAsync. A
// failed or cancelled run returns the final status alongside an error.
func (c *Client) Run(ctx context.Context, req RunRequest) (*RunStatus, error) {
	rr, err := c.RunAsync(ctx, req)
	if err != nil {
		return nil, err
	}
	return rr.Wait(ctx)
}

// RemoteRun is a submitted run's handle.
type RemoteRun struct {
	c  *Client
	ID string
	// Submitted is the submission response — in particular its Cached and
	// Coalesced flags, which later polls do not repeat.
	Submitted *RunStatus
}

// Poll fetches the run's current status; completed cells carry results
// while the rest are still simulating.
func (r *RemoteRun) Poll(ctx context.Context) (*RunStatus, error) {
	return getResource[RunStatus](ctx, r.c, "runs", r.ID, "")
}

// Cancel asks the server to stop the run (in-flight cells finish; queued
// cells are dropped).
func (r *RemoteRun) Cancel(ctx context.Context) error {
	return r.c.do(ctx, http.MethodDelete, "/runs/"+url.PathEscape(r.ID), nil, nil)
}

// Trace fetches the run's span tree, merged across cluster peers.
func (r *RemoteRun) Trace(ctx context.Context) (*TraceResponse, error) {
	return getResource[TraceResponse](ctx, r.c, "runs", r.ID, "/trace")
}

// Wait polls until the run reaches a terminal state. A failed or cancelled
// run returns its final status alongside an error.
func (r *RemoteRun) Wait(ctx context.Context) (*RunStatus, error) {
	return waitView(ctx, "run", r.Submitted, r.Poll)
}

// SweepAsync submits a sweep and returns a handle immediately; the server
// fans the seed × dt × buffer grid out in the background, sharing cells
// with the cache and any overlapping work in flight. Poll or Wait the
// handle for per-cell results and the final summary.
func (c *Client) SweepAsync(ctx context.Context, req SweepRequest) (*RemoteSweep, error) {
	var st SweepStatus
	if err := c.do(ctx, http.MethodPost, "/sweeps", req, &st); err != nil {
		return nil, err
	}
	return &RemoteSweep{c: c, ID: st.ID, Submitted: &st}, nil
}

// Sweep submits and waits: the synchronous convenience over SweepAsync. A
// failed or cancelled sweep returns the final status alongside an error.
func (c *Client) Sweep(ctx context.Context, req SweepRequest) (*SweepStatus, error) {
	rs, err := c.SweepAsync(ctx, req)
	if err != nil {
		return nil, err
	}
	return rs.Wait(ctx)
}

// RemoteSweep is a submitted sweep's handle.
type RemoteSweep struct {
	c  *Client
	ID string
	// Submitted is the submission response. Its CachedCells/
	// CoalescedCells/NewCells accounting is a property of the submission
	// and immutable, so later polls repeat the same values.
	Submitted *SweepStatus
}

// Poll fetches the sweep's current status; completed cells carry results
// while the rest are still simulating, and the summary rows appear once
// the sweep is done.
func (r *RemoteSweep) Poll(ctx context.Context) (*SweepStatus, error) {
	return getResource[SweepStatus](ctx, r.c, "sweeps", r.ID, "")
}

// Cancel asks the server to stop the sweep. Cells shared with other live
// work keep simulating; cells only this sweep wanted are dropped.
func (r *RemoteSweep) Cancel(ctx context.Context) error {
	return r.c.do(ctx, http.MethodDelete, "/sweeps/"+url.PathEscape(r.ID), nil, nil)
}

// Trace fetches the sweep's span tree, merged across cluster peers.
func (r *RemoteSweep) Trace(ctx context.Context) (*TraceResponse, error) {
	return getResource[TraceResponse](ctx, r.c, "sweeps", r.ID, "/trace")
}

// Wait polls until the sweep reaches a terminal state. A failed or
// cancelled sweep returns its final status alongside an error.
func (r *RemoteSweep) Wait(ctx context.Context) (*SweepStatus, error) {
	return waitView(ctx, "sweep", r.Submitted, r.Poll)
}

// ExploreAsync submits a design-space exploration and returns a handle
// immediately; the server probes the space in the background, every point
// attached to the shared content-addressed cell cache. Poll or Wait the
// handle for partial cells and the assembled result.
func (c *Client) ExploreAsync(ctx context.Context, space *explore.Space) (*RemoteExploration, error) {
	var st ExploreStatus
	if err := c.do(ctx, http.MethodPost, "/explorations", space, &st); err != nil {
		return nil, err
	}
	return &RemoteExploration{c: c, ID: st.ID, Submitted: &st}, nil
}

// Explore submits and waits: the synchronous convenience over
// ExploreAsync. The returned status carries the exploration's
// explore.Result — bit-identical to running the same space locally — or an
// error for a failed or cancelled exploration.
func (c *Client) Explore(ctx context.Context, space *explore.Space) (*ExploreStatus, error) {
	re, err := c.ExploreAsync(ctx, space)
	if err != nil {
		return nil, err
	}
	return re.Wait(ctx)
}

// RemoteExploration is a submitted exploration's handle.
type RemoteExploration struct {
	c  *Client
	ID string
	// Submitted is the submission response; cache accounting grows on
	// later polls as the strategy attaches further batches.
	Submitted *ExploreStatus
}

// Poll fetches the exploration's current status: probed cells carry
// results as they complete, and Result appears once the strategy drains.
func (r *RemoteExploration) Poll(ctx context.Context) (*ExploreStatus, error) {
	return getResource[ExploreStatus](ctx, r.c, "explorations", r.ID, "")
}

// Cancel asks the server to stop the exploration. Cells shared with other
// live work keep simulating; cells only this exploration wanted are
// dropped.
func (r *RemoteExploration) Cancel(ctx context.Context) error {
	return r.c.do(ctx, http.MethodDelete, "/explorations/"+url.PathEscape(r.ID), nil, nil)
}

// Trace fetches the exploration's span tree, merged across cluster peers
// — a cross-node exploration renders as one tree.
func (r *RemoteExploration) Trace(ctx context.Context) (*TraceResponse, error) {
	return getResource[TraceResponse](ctx, r.c, "explorations", r.ID, "/trace")
}

// Wait polls until the exploration reaches a terminal state. A failed or
// cancelled exploration returns its final status alongside an error.
func (r *RemoteExploration) Wait(ctx context.Context) (*ExploreStatus, error) {
	return waitView(ctx, "exploration", r.Submitted, r.Poll)
}
