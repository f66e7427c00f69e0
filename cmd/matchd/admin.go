package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"

	"fpinterop/internal/matchsvc"
	"fpinterop/internal/obs"
)

// adminShard is one shard's row in the /admin/stats topology view.
type adminShard struct {
	Name        string `json:"name"`
	Enrollments int    `json:"enrollments"`
	Degraded    bool   `json:"degraded"`
	Err         string `json:"err,omitempty"`
}

// adminView is the /admin/stats document: the same service summary
// OpStats serves on the wire, plus the per-shard breakdown.
type adminView struct {
	Stats  matchsvc.ServiceStats `json:"stats"`
	Shards []adminShard          `json:"shards,omitempty"`
}

// startAdmin serves the operational surface on its own listener,
// separate from the match traffic port:
//
//	/metrics       Prometheus text exposition
//	/metrics.json  the same registry as a flat JSON document
//	/healthz       liveness probe
//	/admin/stats   service summary + shard topology (JSON)
//	/debug/pprof/  the standard Go profiling endpoints
//
// The mux is explicit — nothing registers through http.DefaultServeMux,
// so a library init cannot quietly widen this surface. Returns the
// bound address; the server drains when ctx is cancelled.
func startAdmin(ctx context.Context, addr string, reg *obs.Registry, view func(context.Context) (adminView, error)) (string, error) {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		reg.WritePrometheus(w)
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		reg.WriteJSON(w)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/admin/stats", func(w http.ResponseWriter, r *http.Request) {
		v, err := view(r.Context())
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(v); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("metrics listen %s: %w", addr, err)
	}
	hs := &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	go hs.Serve(ln)
	go func() {
		<-ctx.Done()
		sctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		hs.Shutdown(sctx)
	}()
	return ln.Addr().String(), nil
}
