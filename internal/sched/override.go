package sched

import (
	"fmt"
	"time"

	"vmt/internal/cluster"
	"vmt/internal/workload"
)

// Override wraps a Scheduler so an external controller (a session
// client) can steer placement without replacing the built-in policy.
// Each Place consults the FIFO queue of one-shot directives enqueued
// via Direct first, then the wrapped policy.
//
// A directive is validated — the server must exist, be alive, and have
// a free core — and an invalid one falls back to the wrapped policy,
// counted in Rejected. With no directives, Override is transparent: it
// adds no RNG draws and changes no decisions, so wrapping is
// bit-identical to not wrapping.
//
// SelectRemoval and Tick always delegate: external controllers steer
// where load lands, not the bookkeeping of where it drains from.
type Override struct {
	c     *cluster.Cluster
	inner Scheduler
	// directives is a FIFO per Place-call stream: the first queued
	// directive naming the placed workload wins.
	directives []directive
	overridden uint64
	rejected   uint64
}

type directive struct {
	workload string
	server   int
}

// NewOverride wraps inner, bound to the same cluster.
func NewOverride(c *cluster.Cluster, inner Scheduler) (*Override, error) {
	if c == nil || inner == nil {
		return nil, fmt.Errorf("sched: override needs cluster and inner scheduler")
	}
	return &Override{c: c, inner: inner}, nil
}

// Direct enqueues a one-shot directive: the next placement of the
// named workload goes to server id (if valid at placement time).
func (o *Override) Direct(workloadName string, serverID int) {
	o.directives = append(o.directives, directive{workload: workloadName, server: serverID})
}

// Overridden returns how many placements a directive decided.
func (o *Override) Overridden() uint64 { return o.overridden }

// Rejected returns how many directives were invalid (bad ID, failed
// server, no free core) and fell back to the wrapped policy.
func (o *Override) Rejected() uint64 { return o.rejected }

// Name implements Scheduler, reporting the wrapped policy's name so
// results attribute runs to the real policy.
func (o *Override) Name() string { return o.inner.Name() }

// Tick implements Scheduler.
func (o *Override) Tick(now time.Duration) { o.inner.Tick(now) }

// Place implements Scheduler: directives first, then the wrapped
// policy.
func (o *Override) Place(w workload.Workload) (*cluster.Server, error) {
	for i, d := range o.directives {
		if d.workload != w.Name {
			continue
		}
		o.directives = append(o.directives[:i], o.directives[i+1:]...)
		if s := o.validTarget(d.server); s != nil {
			o.overridden++
			return s, nil
		}
		o.rejected++
		break
	}
	return o.inner.Place(w)
}

// validTarget returns the server if it can accept one more job.
func (o *Override) validTarget(id int) *cluster.Server {
	if id < 0 || id >= o.c.Len() {
		return nil
	}
	s := o.c.Server(id)
	if s.Failed() || s.FreeCores() == 0 {
		return nil
	}
	return s
}

// SelectRemoval implements Scheduler.
func (o *Override) SelectRemoval(w workload.Workload) (*cluster.Server, error) {
	return o.inner.SelectRemoval(w)
}
