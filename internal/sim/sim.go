// Package sim is a discrete-event packet-level simulator for the networks
// described by package topo. It exists as an executable oracle for the
// analytic delay bounds: simulated worst-case (greedy) sources drive the
// same topologies, and every observed end-to-end delay must stay below the
// bounds computed by any sound analyzer.
//
// Packets quantize the fluid model the analysis uses; with packet size L
// and per-hop capacity C, quantization adds at most about L/C of delay per
// hop, which validation tests account for.
package sim

import (
	"container/heap"
	"fmt"
	"math"
	"sort"

	"delaycalc/internal/sched"
	"delaycalc/internal/server"
	"delaycalc/internal/topo"
)

// Config controls a simulation run.
type Config struct {
	// PacketSize is the size of every simulated packet in bits. Smaller
	// packets approximate the fluid model more closely but cost time.
	PacketSize float64
	// Horizon is the simulated time span during which sources emit.
	// In-flight packets are always drained to completion.
	Horizon float64
	// Sources optionally overrides the traffic pattern per connection
	// (indexed like Network.Connections); nil entries and a nil map
	// default to GreedySource, the worst-case pattern.
	Sources map[int]Source
	// Adversary, when set, replaces the default greedy sources with
	// deterministically controlled adversarial ones (per-source phase
	// offsets and burst placements); explicit Sources entries still win.
	// The adversary plus the packet size fully determine the generated
	// traffic, making runs exactly replayable.
	Adversary *Adversary
	// KeepSamples retains every per-packet end-to-end delay so that
	// ConnStats.Percentile works; costs memory proportional to the
	// packet count.
	KeepSamples bool
}

// ConnStats aggregates per-connection delay observations.
type ConnStats struct {
	Packets  int
	MaxDelay float64
	MinDelay float64
	SumDelay float64
	// MaxPerHop records the worst queueing+transmission delay seen at
	// each hop of the connection's path.
	MaxPerHop []float64
	// Samples holds every end-to-end delay when Config.KeepSamples is
	// set, in delivery order.
	Samples []float64
}

// Mean returns the mean end-to-end delay.
func (s ConnStats) Mean() float64 {
	if s.Packets == 0 {
		return 0
	}
	return s.SumDelay / float64(s.Packets)
}

// Percentile returns the p-quantile (0 < p <= 1) of the recorded delay
// samples, or NaN when sampling was not enabled.
func (s ConnStats) Percentile(p float64) float64 {
	if len(s.Samples) == 0 || p <= 0 || p > 1 {
		return math.NaN()
	}
	sorted := append([]float64(nil), s.Samples...)
	sort.Float64s(sorted)
	idx := int(math.Ceil(p*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	return sorted[idx]
}

// Result collects the outcome of a run.
type Result struct {
	Stats []ConnStats
	// Clock is the time the last packet left the network.
	Clock float64
	// Delivered is the total number of packets that traversed their full
	// path.
	Delivered int
	// MaxBacklog records, per server, the largest number of bits present
	// (queued plus in transmission) at any instant.
	MaxBacklog []float64
}

// event is a pending simulator action.
type event struct {
	time float64
	seq  uint64
	kind int // 0 = packet arrival at server, 1 = transmission complete
	srv  int
	pkt  *sched.Packet
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].time != h[j].time {
		return h[i].time < h[j].time
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

const (
	evArrival = iota
	evComplete
)

// Run simulates the network under the configured sources and returns the
// observed delay statistics.
func Run(net *topo.Network, cfg Config) (*Result, error) {
	if err := net.Validate(); err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	if cfg.PacketSize <= 0 {
		return nil, fmt.Errorf("sim: packet size must be positive, got %g", cfg.PacketSize)
	}
	if cfg.Horizon <= 0 {
		return nil, fmt.Errorf("sim: horizon must be positive, got %g", cfg.Horizon)
	}

	queues := make([]sched.Queue, len(net.Servers))
	busyUntil := make([]float64, len(net.Servers))
	for i, s := range net.Servers {
		switch s.Discipline {
		case server.FIFO:
			queues[i] = sched.NewFIFO()
		case server.StaticPriority:
			queues[i] = sched.NewStaticPriority()
		case server.GuaranteedRate:
			queues[i] = sched.NewSCFQ()
		case server.EDF:
			queues[i] = sched.NewEDF()
		default:
			return nil, fmt.Errorf("sim: unsupported discipline %v at server %d", s.Discipline, i)
		}
	}

	res := &Result{
		Stats:      make([]ConnStats, len(net.Connections)),
		MaxBacklog: make([]float64, len(net.Servers)),
	}
	for i, c := range net.Connections {
		res.Stats[i].MaxPerHop = make([]float64, len(c.Path))
	}
	backlog := make([]float64, len(net.Servers))

	var h eventHeap
	var seq uint64
	push := func(t float64, kind, srv int, p *sched.Packet) {
		heap.Push(&h, &event{time: t, seq: seq, kind: kind, srv: srv, pkt: p})
		seq++
	}

	// Per-connection relative local deadline for EDF servers.
	needEDF := false
	for _, s := range net.Servers {
		if s.Discipline == server.EDF {
			needEDF = true
		}
	}
	localDeadline := make([]float64, len(net.Connections))
	if needEDF {
		for i, c := range net.Connections {
			if c.Deadline <= 0 {
				return nil, fmt.Errorf("sim: connection %d needs a positive deadline for EDF servers", i)
			}
			localDeadline[i] = c.Deadline / float64(len(c.Path))
		}
	}

	// Seed source emissions.
	for ci, c := range net.Connections {
		var src Source
		if cfg.Sources != nil {
			src = cfg.Sources[ci]
		}
		if src == nil && cfg.Adversary != nil {
			src = cfg.Adversary.Source(c, ci)
		}
		if src == nil {
			src = GreedySource{Sigma: c.Bucket.Sigma, Rho: c.Bucket.Rho, Access: c.AccessRate}
		}
		for _, t := range src.Times(cfg.PacketSize, cfg.Horizon) {
			p := &sched.Packet{
				Conn:          ci,
				Size:          cfg.PacketSize,
				Release:       t,
				Priority:      c.Priority,
				Weight:        c.Rate,
				LocalDeadline: localDeadline[ci],
			}
			push(t, evArrival, c.Path[0], p)
		}
	}

	hopEnter := make(map[*sched.Packet]float64)
	startService := func(s int, now float64) {
		if busyUntil[s] > now {
			return
		}
		p := queues[s].Pop(now)
		if p == nil {
			return
		}
		// The line is occupied for the transmission time only; the fixed
		// server latency is a pipeline delay that does not consume
		// capacity (it is added at delivery below).
		done := now + p.Size/net.Servers[s].Capacity
		busyUntil[s] = done
		push(done, evComplete, s, p)
	}

	for h.Len() > 0 {
		e := heap.Pop(&h).(*event)
		now := e.time
		if now > res.Clock {
			res.Clock = now
		}
		switch e.kind {
		case evArrival:
			hopEnter[e.pkt] = now
			backlog[e.srv] += e.pkt.Size
			if backlog[e.srv] > res.MaxBacklog[e.srv] {
				res.MaxBacklog[e.srv] = backlog[e.srv]
			}
			queues[e.srv].Push(e.pkt, now)
			startService(e.srv, now)
		case evComplete:
			p := e.pkt
			backlog[e.srv] -= p.Size
			leave := now + net.Servers[e.srv].Latency
			hopDelay := leave - hopEnter[p]
			st := &res.Stats[p.Conn]
			if hopDelay > st.MaxPerHop[p.Hop] {
				st.MaxPerHop[p.Hop] = hopDelay
			}
			delete(hopEnter, p)
			path := net.Connections[p.Conn].Path
			p.Hop++
			if p.Hop < len(path) {
				push(leave, evArrival, path[p.Hop], p)
			} else {
				d := leave - p.Release
				if st.Packets == 0 || d < st.MinDelay {
					st.MinDelay = d
				}
				st.Packets++
				st.SumDelay += d
				if cfg.KeepSamples {
					st.Samples = append(st.Samples, d)
				}
				if d > st.MaxDelay {
					st.MaxDelay = d
				}
				res.Delivered++
				if leave > res.Clock {
					res.Clock = leave
				}
			}
			// The line is now free; serve the next queued packet.
			startService(e.srv, now)
		}
	}
	return res, nil
}

// WorstCaseHorizon suggests a horizon long enough to contain the maximal
// busy period of every server of a valid network under greedy sources,
// with headroom, and at least 50 bit-times of the fastest line: scaling
// every rate by k scales it by 1/k.
func WorstCaseHorizon(net *topo.Network) float64 {
	// A crude but safe bound: total burst divided by the smallest
	// capacity margin, times a safety factor.
	totalBurst, rate := 0.0, make([]float64, len(net.Servers))
	for _, c := range net.Connections {
		for _, s := range c.Path {
			rate[s] += c.Bucket.Rho
		}
		totalBurst += c.Bucket.Sigma
	}
	minMargin, maxCapacity := math.Inf(1), 0.0
	for i, s := range net.Servers {
		if m := s.Capacity - rate[i]; m < minMargin {
			minMargin = m
		}
		maxCapacity = max(maxCapacity, s.Capacity)
	}
	if minMargin <= 0 || math.IsInf(minMargin, 1) {
		return 100
	}
	return max(4*totalBurst/minMargin, 50/maxCapacity)
}
