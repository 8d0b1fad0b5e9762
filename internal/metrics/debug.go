package metrics

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
)

// Debug endpoint: an expvar-style live view of a registry plus the
// standard pprof handlers, mounted on a private mux so tools never touch
// http.DefaultServeMux. The snapshot provider is a function, not a
// registry pointer, so a server can compose the view it serves (xtcd: its
// own instruments plus every engine's, server.Server.Snapshot).

// DebugMux builds the debug handler tree:
//
//	/metrics            registry snapshot as JSON (pretty with ?pretty)
//	/metrics/summary    histogram percentile digests as JSON
//	/debug/pprof/*      the standard runtime profiles
func DebugMux(snap func() *Snapshot) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, req *http.Request) {
		writeJSON(w, req, snap())
	})
	mux.HandleFunc("/metrics/summary", func(w http.ResponseWriter, req *http.Request) {
		s := snap()
		out := make(map[string]LatencySummary, len(s.Histograms))
		for _, name := range s.HistogramNames() {
			out[name] = s.Summary(name)
		}
		writeJSON(w, req, out)
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path != "/" {
			http.NotFound(w, req)
			return
		}
		fmt.Fprintf(w, "debug endpoint — /metrics (JSON), /metrics/summary, /debug/pprof/\n\n")
		snap().WriteText(w)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

func writeJSON(w http.ResponseWriter, req *http.Request, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	if req.URL.Query().Has("pretty") {
		enc.SetIndent("", "  ")
	}
	if err := enc.Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// ServeDebug starts the debug endpoint on addr (e.g. "localhost:6060") and
// returns the bound address and a shutdown func. The server runs on its own
// goroutine; Serve errors after shutdown are ignored (the listener closing
// is the normal exit).
func ServeDebug(addr string, snap func() *Snapshot) (string, func(), error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: DebugMux(snap)}
	go func() { _ = srv.Serve(ln) }()
	return ln.Addr().String(), func() { _ = srv.Close() }, nil
}
