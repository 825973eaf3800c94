package service

import "sync/atomic"

// Readers of Metrics that only the tests use; WriteText (/metrics) reads the
// fields itself.

// InFlight returns the current in-flight request count.
func (m *Metrics) InFlight() int64 { return atomic.LoadInt64(&m.inFlight) }

// RequestCount returns the total count recorded for an endpoint and code.
func (m *Metrics) RequestCount(endpoint string, code int) uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.requests[endpoint][code]
}

// QueueDepth returns the number of requests currently waiting for an
// analysis slot.
func (m *Metrics) QueueDepth() int64 { return atomic.LoadInt64(&m.queued) }

// Shed returns the cumulative shed-request count.
func (m *Metrics) Shed() uint64 { return atomic.LoadUint64(&m.shed) }
