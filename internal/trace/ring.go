package trace

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// ringShards is the lock-shard count for Ring. Eight shards keep
// concurrent completions from serializing on one mutex without
// inflating an idle ring's footprint.
const ringShards = 8

// Ring is a bounded, lock-sharded ring buffer of completed traces. Add
// assigns a global admission sequence number atomically, then files the
// trace into a shard keyed by that sequence, so the retained set is an
// exact invariant even under concurrent writers: after N adds, the ring
// holds precisely the Cap() most recent traces by admission order —
// nothing older survives, nothing newer is lost. A straggler whose add
// races a full wrap (its slot was already claimed by a trace a whole
// capacity newer) is dropped rather than allowed to resurrect stale
// data.
type Ring struct {
	seq    atomic.Uint64
	percap uint64 // slots per shard
	shards [ringShards]struct {
		mu  sync.Mutex
		buf []*Trace
	}
}

// NewRing makes a ring retaining the most recent capacity traces.
// Capacity is rounded up to a multiple of the shard count; values < 1
// are rejected by returning nil (callers gate on that to disable the
// ring entirely).
func NewRing(capacity int) *Ring {
	if capacity < 1 {
		return nil
	}
	per := (capacity + ringShards - 1) / ringShards
	r := &Ring{percap: uint64(per)}
	for i := range r.shards {
		r.shards[i].buf = make([]*Trace, per)
	}
	return r
}

// Cap returns the exact number of traces the ring retains.
func (r *Ring) Cap() int { return int(r.percap) * ringShards }

// Add files a completed trace and releases whichever trace the add
// retires — the displaced slot occupant, or t itself when it is a
// straggler racing a full wrap. Safe for concurrent use; the caller
// must not touch t after Add.
func (r *Ring) Add(t *Trace) {
	seq := r.seq.Add(1)
	t.seq = seq
	sh := &r.shards[seq%ringShards]
	slot := (seq / ringShards) % r.percap
	sh.mu.Lock()
	retired := t
	if old := sh.buf[slot]; old == nil || old.seq < seq {
		sh.buf[slot] = t
		retired = old
	}
	sh.mu.Unlock()
	if retired != nil {
		release(retired)
	}
}

// Len returns the number of retained traces.
func (r *Ring) Len() int {
	n := 0
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.Lock()
		for _, t := range sh.buf {
			if t != nil {
				n++
			}
		}
		sh.mu.Unlock()
	}
	return n
}

// Snapshot copies every retained trace as a View, newest first (by
// admission order). keep filters: a nil keep takes everything.
func (r *Ring) Snapshot(now time.Time, keep func(View) bool) []View {
	type seqView struct {
		seq uint64
		v   View
	}
	all := make([]seqView, 0, r.Cap())
	for i := range r.shards {
		sh := &r.shards[i]
		// Views are copied under the shard lock: holding it pins every
		// trace in the shard, so a concurrent Add can never displace —
		// and recycle — a trace mid-copy. The sections stay short; this
		// is a debug surface.
		sh.mu.Lock()
		for _, t := range sh.buf {
			if t != nil {
				all = append(all, seqView{t.seq, t.View(now)})
			}
		}
		sh.mu.Unlock()
	}
	sort.Slice(all, func(i, j int) bool { return all[i].seq > all[j].seq })
	out := make([]View, 0, len(all))
	for _, sv := range all {
		if keep == nil || keep(sv.v) {
			out = append(out, sv.v)
		}
	}
	return out
}

// liveShards is the lock-shard count for Live.
const liveShards = 8

// Live is a sharded table of in-flight traces, keyed by trace ID —
// the backing store for the /debug/requests live dump.
type Live struct {
	shards [liveShards]struct {
		mu sync.Mutex
		m  map[string]*Trace
	}
}

// NewLive makes an empty table.
func NewLive() *Live {
	l := &Live{}
	for i := range l.shards {
		l.shards[i].m = make(map[string]*Trace)
	}
	return l
}

// shard hashes a trace ID (FNV-1a) to a shard index.
func (l *Live) shard(id string) int {
	h := uint64(14695981039346656037)
	for i := 0; i < len(id); i++ {
		h ^= uint64(id[i])
		h *= 1099511628211
	}
	return int(h % liveShards)
}

// Add registers an in-flight trace.
func (l *Live) Add(t *Trace) {
	sh := &l.shards[l.shard(t.ID())]
	sh.mu.Lock()
	sh.m[t.ID()] = t
	sh.mu.Unlock()
}

// Remove drops a trace, normally at Finish time.
func (l *Live) Remove(t *Trace) {
	sh := &l.shards[l.shard(t.ID())]
	sh.mu.Lock()
	delete(sh.m, t.ID())
	sh.mu.Unlock()
}

// Len returns the number of in-flight traces.
func (l *Live) Len() int {
	n := 0
	for i := range l.shards {
		sh := &l.shards[i]
		sh.mu.Lock()
		n += len(sh.m)
		sh.mu.Unlock()
	}
	return n
}

// Snapshot copies every in-flight trace as a View, oldest first — the
// longest-stuck request is the one an operator wants at the top. Views
// are copied under the shard lock so a trace finishing (and possibly
// being recycled) concurrently can never be read mid-reuse.
func (l *Live) Snapshot(now time.Time) []View {
	var out []View
	for i := range l.shards {
		sh := &l.shards[i]
		sh.mu.Lock()
		for _, t := range sh.m {
			out = append(out, t.View(now))
		}
		sh.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].StartUnixNs < out[j].StartUnixNs })
	return out
}
