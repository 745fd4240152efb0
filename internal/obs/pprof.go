package obs

import (
	"crypto/subtle"
	"net/http"
	"net/http/pprof"
	"strings"
)

// PprofHandler serves the net/http/pprof endpoints under /debug/pprof/,
// gated behind the given Bearer token — the same internal token that
// authenticates cluster snapshot replication, so profiling a production
// node needs exactly the credential operators already hold. An empty
// token disables the surface entirely (every request answers 403),
// matching the cluster-endpoint posture: a process not configured for
// internal access exposes nothing.
//
// The response on rejection is deliberately bodyless plain 403 (not the
// API error envelope): /debug/pprof is not part of the public API and
// must not leak which profiles exist.
func PprofHandler(token string) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if token == "" {
			http.Error(w, "profiling disabled", http.StatusForbidden)
			return
		}
		if !HasBearer(r, token) {
			http.Error(w, "forbidden", http.StatusForbidden)
			return
		}
		mux.ServeHTTP(w, r)
	})
}

// HasBearer reports whether r carries "Authorization: Bearer <token>",
// comparing the token in constant time. An empty token matches nothing.
func HasBearer(r *http.Request, token string) bool {
	got, ok := strings.CutPrefix(r.Header.Get("Authorization"), "Bearer ")
	return ok && token != "" && subtle.ConstantTimeCompare([]byte(got), []byte(token)) == 1
}
