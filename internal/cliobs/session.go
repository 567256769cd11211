package cliobs

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"

	"vmt"
)

// SessionServer drives a live vmt.Session over the cliobs debug mux.
// Sessions are not goroutine-safe, so every endpoint serialises
// through the server's mutex; the simulation only advances when a
// client asks it to, which is the point — an external controller owns
// the clock.
//
// Endpoints (on the -debug-addr listener, next to /metrics and /fleet):
//
//	GET  /observe            latest Observation as JSON (never advances)
//	POST /step?n=5           advance n ticks (a positive integer,
//	                         default 1; a finite session stops at its
//	                         horizon), return the post-step Observation
//	POST /place?workload=WebSearch&server=3
//	                         enqueue a one-shot placement directive for
//	                         the next matching arrival
type SessionServer struct {
	mu       sync.Mutex
	sess     *vmt.Session
	done     chan struct{}
	doneOnce sync.Once
}

// The default mux is process-global and panics on duplicate patterns,
// so the handlers register once and read the active server through an
// atomic pointer, mirroring the /metrics and /fleet wiring.
var (
	sessionOnce sync.Once
	liveSession atomic.Pointer[SessionServer]
)

// ServeSession installs s behind /observe, /step, and /place on the
// default mux (served by the -debug-addr listener) and returns the
// server handle. Call at most one session per process at a time; a
// second call retargets the endpoints to the new session.
func ServeSession(s *vmt.Session) *SessionServer {
	ss := &SessionServer{sess: s, done: make(chan struct{})}
	sessionOnce.Do(registerSessionHandlers)
	liveSession.Store(ss)
	return ss
}

// Done is closed when a /step drives a finite-horizon session to
// completion. Open-ended sessions never close it; interrupt the
// process instead.
func (ss *SessionServer) Done() <-chan struct{} { return ss.done }

func registerSessionHandlers() {
	http.HandleFunc("/observe", func(w http.ResponseWriter, r *http.Request) {
		ss := liveSession.Load()
		if ss == nil {
			http.Error(w, "no session being served", http.StatusNotFound)
			return
		}
		ss.mu.Lock()
		obs := ss.sess.Observe()
		ss.mu.Unlock()
		writeObservation(w, obs)
	})
	http.HandleFunc("/step", func(w http.ResponseWriter, r *http.Request) {
		ss := liveSession.Load()
		if ss == nil {
			http.Error(w, "no session being served", http.StatusNotFound)
			return
		}
		if r.Method != http.MethodPost {
			http.Error(w, "POST required", http.StatusMethodNotAllowed)
			return
		}
		n := 1
		if q := r.URL.Query().Get("n"); q != "" {
			var err error
			if n, err = strconv.Atoi(q); err != nil || n <= 0 {
				http.Error(w, fmt.Sprintf("bad n %q: want a positive integer", q), http.StatusBadRequest)
				return
			}
		}
		ss.mu.Lock()
		err := ss.sess.Step(n)
		obs := ss.sess.Observe()
		ss.mu.Unlock()
		if err != nil {
			http.Error(w, err.Error(), http.StatusConflict)
			return
		}
		if obs.Done {
			ss.doneOnce.Do(func() { close(ss.done) })
		}
		writeObservation(w, obs)
	})
	http.HandleFunc("/place", func(w http.ResponseWriter, r *http.Request) {
		ss := liveSession.Load()
		if ss == nil {
			http.Error(w, "no session being served", http.StatusNotFound)
			return
		}
		if r.Method != http.MethodPost {
			http.Error(w, "POST required", http.StatusMethodNotAllowed)
			return
		}
		q := r.URL.Query()
		server, err := strconv.Atoi(q.Get("server"))
		if err != nil {
			http.Error(w, fmt.Sprintf("bad server: %v", err), http.StatusBadRequest)
			return
		}
		ss.mu.Lock()
		err = ss.sess.Place(q.Get("workload"), server)
		ss.mu.Unlock()
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
}

func writeObservation(w http.ResponseWriter, obs vmt.Observation) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	if err := enc.Encode(obs); err != nil {
		// Headers are gone; nothing useful to report to the client.
		return
	}
}
