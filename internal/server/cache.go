package server

import (
	"container/list"
	"context"
	"sync"
)

// CacheOutcome classifies how a cached operation was served.
type CacheOutcome int

const (
	// CacheMiss: this request computed the result itself (single-flight
	// leader or cache disabled).
	CacheMiss CacheOutcome = iota
	// CacheHit: the result was already cached.
	CacheHit
	// CacheShared: an identical request was already computing; this one
	// waited and shared its result without doing the work.
	CacheShared
)

// resultCache is a bounded content-addressed result cache with single-flight
// dedup: the first request for a key computes (the leader), concurrent
// identical requests wait and share the result (followers), completed
// results are retained LRU up to a byte budget. Content addressing makes
// this safe: the key embeds a seeded 64-bit sum and the length of the input
// plus every option that affects the output, so identical keys mean
// identical answers.
//
// The one result that is not a function of its key alone — a tenant's
// whole-archive container, which grows with every put — lives in the same
// LRU under the same budget through Refresh, which versions the slot.
type resultCache struct {
	mu sync.Mutex
	// capBytes bounds the sum of completed result sizes (0 disables
	// retention; single-flight dedup still applies).
	capBytes int64
	size     int64
	// ll orders completed entries most-recent-first; in-flight entries live
	// only in m.
	ll *list.List
	m  map[string]*centry
}

type centry struct {
	key string
	// ver is the state of the world out reflects (always 0 for
	// content-addressed results, which never go cur).
	ver  int64
	elem *list.Element // nil while in flight
	done chan struct{}
	out  []byte
	err  error
}

func newResultCache(capBytes int64) *resultCache {
	if capBytes < 0 {
		capBytes = 0
	}
	return &resultCache{capBytes: capBytes, ll: list.New(), m: make(map[string]*centry)}
}

// Do returns the cached result for key, waits for an in-flight identical
// computation, or runs fn as the leader. A leader error is never cached: the
// entry is removed so later requests retry, and followers whose context is
// still live retry themselves rather than inheriting a leader's
// deadline/cancel error.
//
// The returned slice is always the caller's to mutate: whenever the result
// is (or may later be) retained in the cache, Do hands out a defensive copy,
// never the retained backing array. Returning the cached slice directly let
// one handler's post-processing corrupt every later hit for the same key.
func (c *resultCache) Do(ctx context.Context, key string, fn func() ([]byte, error)) ([]byte, CacheOutcome, error) {
	return c.Refresh(ctx, key, 0, func([]byte) ([]byte, error) { return fn() })
}

// Refresh is Do for a result that goes cur: ver says which state of the
// world the caller needs (versions only grow). A retained or in-flight
// result at least that new is shared exactly as in Do. An older one is not
// thrown away but handed to fn as prev — read-only, it may still be serving
// other requests — so the leader brings it up to date instead of starting
// over; prev is nil when nothing is retained. If fn fails, the older result
// stays cached.
func (c *resultCache) Refresh(ctx context.Context, key string, ver int64, fn func(prev []byte) ([]byte, error)) ([]byte, CacheOutcome, error) {
	if c == nil {
		out, err := fn(nil)
		return out, CacheMiss, err
	}
	for {
		if err := ctx.Err(); err != nil {
			return nil, CacheMiss, err
		}
		c.mu.Lock()
		cur := c.m[key]
		if cur != nil {
			select {
			case <-cur.done: // completed, stored
				if cur.ver >= ver {
					c.ll.MoveToFront(cur.elem)
					kept := cur.out
					c.mu.Unlock()
					// Kept results are never written, so the hit's copy is
					// made outside the lock.
					return append([]byte(nil), kept...), CacheHit, nil
				}
				c.remove(cur)
			default: // in flight: follow
				c.mu.Unlock()
				select {
				case <-cur.done:
					if cur.err == nil && cur.ver >= ver {
						// cur.out may be retained; every follower gets its
						// own copy (they all alias the leader's slice
						// otherwise).
						return append([]byte(nil), cur.out...), CacheShared, nil
					}
					// The leader failed (its entry is already removed), or
					// built an older version than this request needs. Retry
					// as (potential) leader, so a follower is never penalized
					// with the leader's deadline or shed error.
					continue
				case <-ctx.Done():
					return nil, CacheShared, ctx.Err()
				}
			}
		}
		e := &centry{key: key, ver: ver, done: make(chan struct{})}
		c.m[key] = e
		c.mu.Unlock()

		// Whatever completed entry is left in cur at this point is older
		// than ver and already out of the LRU: fn builds on it.
		var prev []byte
		if cur != nil {
			prev = cur.out
		}
		out, err := fn(prev)
		// Nobody reads e before done is closed, so its result is set, and
		// the copy to keep made, before taking the lock. The cache keeps its
		// own copy, so the leader's slice — and each follower's copy of
		// e.out — stays the caller's to mutate.
		e.err, e.out = err, out
		keep := err == nil && e.cost() <= c.capBytes
		if keep {
			e.out = append([]byte(nil), out...)
		}
		c.mu.Lock()
		delete(c.m, key)
		switch {
		case err != nil:
			if cur != nil {
				c.retain(cur)
			}
		case keep:
			c.retain(e)
		}
		close(e.done)
		c.mu.Unlock()
		return out, CacheMiss, err
	}
}

// retain stores a completed entry that fits the budget most-recent-first
// and evicts from the least-recent end until the budget holds. Caller holds
// c.mu.
func (c *resultCache) retain(e *centry) {
	c.m[e.key] = e
	e.elem = c.ll.PushFront(e)
	c.size += e.cost()
	for c.size > c.capBytes {
		c.remove(c.ll.Back().Value.(*centry))
	}
}

// remove drops a retained entry. Caller holds c.mu.
func (c *resultCache) remove(e *centry) {
	c.ll.Remove(e.elem)
	delete(c.m, e.key)
	c.size -= e.cost()
}

func (e *centry) cost() int64 { return int64(len(e.out) + len(e.key)) }

// Len reports completed entries currently retained (tests/ops).
func (c *resultCache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Bytes reports retained result bytes (tests/ops).
func (c *resultCache) Bytes() int64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.size
}
