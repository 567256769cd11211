package experiment

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sync"
)

// Key canonicalizes v into a content address: the sha256 of its JSON
// encoding. encoding/json sorts map keys, so maps with identical
// contents hash identically regardless of insertion order. Callers
// hash a fully-resolved value (defaults applied, observational fields
// stripped) so that configurations that simulate identically address
// the same cache slot.
func Key(v any) (string, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return "", fmt.Errorf("experiment: hashing: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// Cache is a content-addressed store of completed run results keyed
// by canonical config hash. It is safe for concurrent use. A session
// cache lets studies that share runs (notably round-robin baselines)
// simulate each distinct configuration exactly once.
type Cache struct {
	mu      sync.Mutex
	store   map[string]entry
	enabled bool
	hits    uint64
	misses  uint64
	// verify, when non-nil, fingerprints values at Commit and
	// re-checks the fingerprint on every read: an entry mutated since
	// it was stored (a torn write, an aliasing caller scribbling on a
	// shared result) is quarantined — deleted and recomputed as a
	// miss — never silently returned.
	verify      func(any) uint64
	corruptions uint64
}

// entry pairs a stored value with the fingerprint it had at Commit.
type entry struct {
	value any
	fp    uint64
}

// NewCache returns an empty, enabled cache with no verifier.
func NewCache() *Cache {
	return &Cache{store: make(map[string]entry), enabled: true}
}

// SetVerifier installs an integrity fingerprint: fp is evaluated over
// each value when stored and again on every cache read; a mismatch
// quarantines the entry (see Corruptions). A nil fp disables
// verification. Not safe to change while reads are in flight.
func (c *Cache) SetVerifier(fp func(any) uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.verify = fp
}

// Corruptions returns how many stored entries failed integrity
// verification on read since the last Reset.
func (c *Cache) Corruptions() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.corruptions
}

// SetEnabled toggles the cache. While disabled, Plan dedups nothing
// and Commit stores nothing, so every requested run executes — the
// behavior studies had before the cache existed.
func (c *Cache) SetEnabled(on bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.enabled = on
}

// Enabled reports whether the cache is active.
func (c *Cache) Enabled() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.enabled
}

// Reset drops all stored results and zeroes the hit/miss/corruption
// counters.
func (c *Cache) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.store = make(map[string]entry)
	c.hits, c.misses, c.corruptions = 0, 0, 0
}

// Len returns the number of stored results.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.store)
}

// Stats returns the cumulative hit and miss counts since the last
// Reset. A hit is a requested run that did not need to execute —
// answered from the store or deduplicated against an identical run in
// the same batch; a miss is a run that actually executed.
func (c *Cache) Stats() (hits, misses uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// Plan describes how to satisfy one batch of keyed requests: Run
// lists the request indices that must actually execute (first
// occurrence of each missing key, in request order), and source maps
// every request index to either -1 (answered from cache; cached[i]
// holds the result) or a position in Run.
type Plan struct {
	Run    []int
	source []int
	cached []any
	keys   []string
	// corrupt counts stored entries this plan quarantined (integrity
	// check failed); each was deleted and re-planned as a miss.
	corrupt int
}

// Misses returns how many of the batch's requests must execute.
func (p *Plan) Misses() int { return len(p.Run) }

// Corrupt returns how many stored entries this plan quarantined.
func (p *Plan) Corrupt() int { return p.corrupt }

// Plan computes the dedup plan for the given keys. With the cache
// disabled the plan is the identity: every request runs, nothing is
// deduplicated, so disabled-cache executions match the pre-cache
// code paths run for run. An empty key marks a request the cache must
// neither answer nor keep: it always runs, no other request folds into
// it, and Commit stores nothing for it.
func (c *Cache) Plan(keys []string) *Plan {
	p := &Plan{
		source: make([]int, len(keys)),
		cached: make([]any, len(keys)),
		keys:   keys,
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.enabled {
		p.Run = make([]int, len(keys))
		for i := range keys {
			p.Run[i] = i
			p.source[i] = i
			c.misses++
		}
		return p
	}
	firstRun := make(map[string]int, len(keys))
	for i, k := range keys {
		if k == "" {
			c.misses++
			p.source[i] = len(p.Run)
			p.Run = append(p.Run, i)
			continue
		}
		if e, ok := c.store[k]; ok {
			if c.verify != nil && c.verify(e.value) != e.fp {
				// Quarantine: the stored value no longer matches its
				// commit-time fingerprint. Drop it and fall through to
				// the miss path so it recomputes.
				delete(c.store, k)
				c.corruptions++
				p.corrupt++
			} else {
				p.source[i] = -1
				p.cached[i] = e.value
				c.hits++
				continue
			}
		}
		if at, ok := firstRun[k]; ok {
			p.source[i] = at
			c.hits++
			continue
		}
		c.misses++
		firstRun[k] = len(p.Run)
		p.source[i] = len(p.Run)
		p.Run = append(p.Run, i)
	}
	return p
}

// Commit merges freshly-executed results back into the batch and, if
// the cache is enabled, stores them for future sessions of the same
// process. fresh must align with plan.Run; nil entries (failed runs)
// are passed through but never cached. The returned slice aligns with
// the original request keys.
func (c *Cache) Commit(p *Plan, fresh []any) []any {
	if len(fresh) != len(p.Run) {
		panic(fmt.Sprintf("experiment: Commit got %d results for %d planned runs", len(fresh), len(p.Run)))
	}
	out := make([]any, len(p.source))
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, src := range p.source {
		if src < 0 {
			out[i] = p.cached[i]
			continue
		}
		out[i] = fresh[src]
		if c.enabled && fresh[src] != nil && p.keys[i] != "" {
			e := entry{value: fresh[src]}
			if c.verify != nil {
				e.fp = c.verify(e.value)
			}
			c.store[p.keys[i]] = e
		}
	}
	return out
}
