package matchsvc

import (
	"sync/atomic"
	"time"

	"fpinterop/internal/obs"
)

// framesOutstanding counts frameScratch buffers currently checked out
// of the pool — a live view of wire-path buffer pressure across every
// client and server in the process.
var framesOutstanding atomic.Int64

// clientMetrics holds a client's handles, resolved once in SetMetrics.
type clientMetrics struct {
	inflight  *obs.Gauge     // matchsvc_client_inflight
	redials   *obs.Counter   // matchsvc_client_redials_total
	retries   *obs.Counter   // matchsvc_client_retries_total
	late      *obs.Counter   // matchsvc_client_late_responses_total
	reqBytes  *obs.Histogram // matchsvc_client_request_bytes
	respBytes *obs.Histogram // matchsvc_client_response_bytes
}

// SetMetrics registers the client's wire metrics — in-flight requests,
// transparent redials, and frame payload sizes — on reg. Call once,
// before concurrent use; a client without metrics pays one nil check
// per request.
func (c *Client) SetMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	m := &clientMetrics{
		inflight: reg.Gauge("matchsvc_client_inflight",
			"Requests currently holding the client connection."),
		redials: reg.Counter("matchsvc_client_redials_total",
			"Transparent reconnects after a transport failure."),
		retries: reg.Counter("matchsvc_client_retries_total",
			"Idempotent requests transparently retried after a transport failure."),
		late: reg.Counter("matchsvc_client_late_responses_total",
			"Multiplexed responses discarded because their caller had already given up."),
		reqBytes: reg.Histogram("matchsvc_client_request_bytes",
			"Request frame payload sizes in bytes.", obs.SizeBuckets()),
		respBytes: reg.Histogram("matchsvc_client_response_bytes",
			"Response frame payload sizes in bytes.", obs.SizeBuckets()),
	}
	c.met.Store(m)
}

// serverMetrics holds a server's handles, with per-op counters and
// latency histograms pre-resolved into opcode-indexed arrays so the
// dispatch path never touches a label lookup.
type serverMetrics struct {
	conns      *obs.Gauge   // matchsvc_server_connections
	connsTotal *obs.Counter // matchsvc_server_connections_total
	inflight   *obs.Gauge   // matchsvc_server_inflight
	unknown    *obs.Counter // requests with an opcode outside the table
	requests   [numOps]*obs.Counter
	latency    [numOps]*obs.Histogram
}

// SetMetrics registers the server's wire metrics — connection and
// in-flight gauges, per-op request counters and latency histograms,
// and the process-wide frame-pool occupancy — on reg. Call before
// Serve.
func (s *Server) SetMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	m := &serverMetrics{
		conns: reg.Gauge("matchsvc_server_connections",
			"Currently open client connections."),
		connsTotal: reg.Counter("matchsvc_server_connections_total",
			"Client connections accepted."),
		inflight: reg.Gauge("matchsvc_server_inflight",
			"Requests currently being served."),
		unknown: reg.Counter("matchsvc_server_unknown_ops_total",
			"Requests carrying an opcode the server does not know."),
	}
	req := reg.CounterVec("matchsvc_server_requests_total",
		"Requests served, by opcode.", "op")
	lat := reg.HistogramVec("matchsvc_server_latency_ns",
		"Request dispatch latency in nanoseconds, by opcode.",
		obs.LatencyBuckets(), "op")
	for op, row := range ops {
		if row.label == "" {
			continue
		}
		m.requests[op] = req.With(row.label)
		m.latency[op] = lat.With(row.label)
	}
	reg.GaugeFunc("matchsvc_frame_pool_outstanding",
		"Frame scratch buffers currently checked out of the shared pool (process-wide).",
		framesOutstanding.Load)
	s.met = m
}

// observeOp records one dispatched request.
//
//fpvet:hotpath
func (m *serverMetrics) observeOp(op byte, t0 time.Time) {
	if int(op) < numOps && m.requests[op] != nil {
		m.requests[op].Inc()
		m.latency[op].ObserveSince(t0)
		return
	}
	m.unknown.Inc()
}
