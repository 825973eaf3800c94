package main

import (
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"delaycalc/internal/analysis"
	"delaycalc/internal/server"
	"delaycalc/internal/service"
	"delaycalc/internal/topo"
)

// churnConfig fixes one closed-loop churn workload.
type churnConfig struct {
	analyzer analysis.Analyzer
	shards   int
	// fabric returns the servers and, per fabric block, the servers of
	// that block in path order. Client i is pinned to block i; blocks
	// beyond the clients hold standing state only.
	fabric        func() ([]server.Server, [][]server.Server, error)
	clients       int
	prefill       int // connections offered per block before the window
	rho, deadline float64
	mix           churnMix
	warmup        int // untimed requests per client before the window
	requests      int // timed requests per client and round
}

// serveChurn: per-op analysis is cheap, so the round trip, JSON, the
// snapshot commit and compaction carry the cost.
var serveChurn = churnConfig{
	analyzer: analysis.Decomposed{},
	shards:   1,
	fabric: func() ([]server.Server, [][]server.Server, error) {
		servers := tandemServers(16)
		return servers, [][]server.Server{servers}, nil
	},
	clients: 1, prefill: 120, rho: 0.002, deadline: 100,
	mix:    churnMix{admit: 15, release: 15, batch: 1, batchReleases: 16, batchAdmits: 16},
	warmup: 100, requests: 3100,
}

// shardChurn: every op replays a standing block incrementally, so
// analysis and the curve kernels carry the cost.
var shardChurn = churnConfig{
	analyzer: analysis.Integrated{},
	shards:   4,
	fabric: func() ([]server.Server, [][]server.Server, error) {
		const blocks, switches = 8, 3
		net, err := topo.DisjointBlocks(blocks, switches, 0.5)
		if err != nil {
			return nil, nil, err
		}
		groups := make([][]server.Server, blocks)
		for b := range groups {
			groups[b] = net.Servers[b*switches : (b+1)*switches]
		}
		return net.Servers, groups, nil
	},
	clients: 2, prefill: 260, rho: 0.0001, deadline: 500,
	mix:    churnMix{admit: 6, release: 3, batch: 1, batchReleases: 1, batchAdmits: 2},
	warmup: 20, requests: 1000,
}

// churnClient is one closed loop: a kept-alive connection, its seeded
// request stream and what it measured.
type churnClient struct {
	c      *client
	stream *churnStream
	rd     *roundData
	// offered and rejected count single and enveloped admit candidates.
	offered, rejected int
}

// issue sends one request of the stream over HTTP and files its latency,
// which ends when the answer's body is read; decoding happens after. A
// rejected admission is a correct answer; a transport error, a status
// other than 200 or an errored envelope entry is a failure.
func (cc *churnClient) issue(op churnOp, timed bool) {
	admitted := make([]bool, len(op.admits))
	start := time.Now()
	data, err := cc.send(op)
	elapsed := time.Since(start)
	ok := err == nil && readAnswer(op, data, admitted)
	cc.stream.settle(op, admitted)
	if !timed {
		return
	}
	cc.rd.attempted++
	if !ok {
		cc.rd.failed++
		return
	}
	cc.rd.observe(op.class, elapsed)
	for _, a := range admitted {
		cc.offered++
		if !a {
			cc.rejected++
		}
	}
}

func (cc *churnClient) send(op churnOp) ([]byte, error) {
	switch op.class {
	case "admit":
		return cc.c.post(apiPrefix+"/connections", service.AdmitRequest{Connection: op.admits[0]})
	case "release":
		status, data, err := cc.c.call(http.MethodDelete, apiPrefix+"/connections/"+op.releases[0], nil)
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("DELETE %s: status %d", op.releases[0], status)
		}
		return data, err
	default:
		return cc.c.post(apiPrefix+"/batch", batchRequest(op))
	}
}

// readAnswer extracts the admit decisions from a 200 answer and reports
// whether every operation in it was answered without error.
func readAnswer(op churnOp, data []byte, admitted []bool) bool {
	switch op.class {
	case "admit":
		var resp service.AdmitResponse
		if decode(data, &resp) != nil {
			return false
		}
		admitted[0] = resp.Admitted
		return true
	case "release":
		return true
	default:
		var resp service.BatchResponse
		return decode(data, &resp) == nil && readEnvelope(op, &resp, admitted)
	}
}

// batchRequest spells an envelope: the releases first, then the admits.
func batchRequest(op churnOp) service.BatchRequest {
	var req service.BatchRequest
	for _, name := range op.releases {
		req.Operations = append(req.Operations, service.BatchOp{Op: "release", Name: name})
	}
	for i := range op.admits {
		req.Operations = append(req.Operations, service.BatchOp{Op: "admit", Connection: &op.admits[i]})
	}
	return req
}

// readEnvelope extracts the admit decisions of an envelope answer and
// reports whether every entry was answered without error.
func readEnvelope(op churnOp, resp *service.BatchResponse, admitted []bool) bool {
	if resp.Errors > 0 || len(resp.Results) != len(op.releases)+len(op.admits) {
		return false
	}
	for i, r := range resp.Results[len(op.releases):] {
		admitted[i] = r.Status == service.BatchStatusAdmitted
	}
	return true
}

// round runs one round of a churn workload.
func (cfg *churnConfig) round(env *roundEnv) (*roundData, error) {
	rd := newRoundData()
	setupStart := time.Now()
	servers, groups, err := cfg.fabric()
	if err != nil {
		return nil, err
	}
	sv, err := newServing(env, servers, cfg.analyzer, cfg.shards)
	if err != nil {
		return nil, err
	}
	defer sv.d.stop()

	admin := newClient(sv.d.base)
	defer admin.close()
	clients := make([]*churnClient, cfg.clients)
	for b, group := range groups {
		stream := fmt.Sprintf("block%d", b)
		pre := newConnGen(rand.New(rand.NewSource(env.rngSeed(stream+"/prefill"))),
			fmt.Sprintf("pf%dx", b), group, cfg.rho, cfg.deadline)
		pool, err := sv.prefill(admin, pre, env.count(cfg.prefill))
		if err != nil {
			return nil, err
		}
		if b >= cfg.clients {
			continue
		}
		rng := rand.New(rand.NewSource(env.rngSeed(stream)))
		gen := newConnGen(rng, fmt.Sprintf("c%dn", b), group, cfg.rho, cfg.deadline)
		clients[b] = &churnClient{c: newClient(sv.d.base), stream: newChurnStream(rng, gen, cfg.mix, pool), rd: newRoundData()}
		defer clients[b].c.close()
	}
	if err := sv.warm(); err != nil {
		return nil, err
	}
	warmup, requests := env.count(cfg.warmup), env.count(cfg.requests)
	if sv.reps != nil {
		return rd, sv.reps.churnRound(rd, clients, warmup, requests, setupStart)
	}
	for _, cc := range clients {
		for i := 0; i < warmup; i++ {
			cc.issue(cc.stream.next(), false)
		}
		cc.c.sent, cc.c.recv = 0, 0
	}
	rd.setup = time.Since(setupStart)
	before, err := scrape(admin)
	if err != nil {
		return nil, err
	}

	w := openWindow()
	var wg sync.WaitGroup
	for _, cc := range clients {
		wg.Add(1)
		go func(cc *churnClient) {
			defer wg.Done()
			for i := 0; i < requests; i++ {
				cc.issue(cc.stream.next(), true)
			}
		}(cc)
	}
	wg.Wait()
	mergeClients(rd, clients)
	w.close(rd)
	rd.liveHeap()

	after, err := scrape(admin)
	if err != nil {
		return nil, err
	}
	fileCounts(rd, before, after)
	probe := clients[0].stream.gen.next()
	return rd, checkServing(rd, admin, servers, cfg.analyzer, probe)
}

// sequenceHash combines the clients' request-and-decision hashes in
// client order.
func sequenceHash(clients []*churnClient) uint64 {
	var h uint64
	for _, cc := range clients {
		h = h*1099511628211 ^ cc.stream.sum.Sum64()
	}
	return h
}

// mergeClients folds the clients' recordings into the round's, client by
// client, and files the generator's own counts.
func mergeClients(rd *roundData, clients []*churnClient) {
	var offered, rejected int
	var sent, recv int64
	rd.opHash = sequenceHash(clients)
	for _, cc := range clients {
		rd.attempted += cc.rd.attempted
		rd.failed += cc.rd.failed
		for class, lat := range cc.rd.lat {
			rd.lat[class] = append(rd.lat[class], lat...)
		}
		offered += cc.offered
		rejected += cc.rejected
		sent += cc.c.sent
		recv += cc.c.recv
	}
	rd.counts["admission.reject_ratio"] = ratio(float64(rejected), float64(offered))
	rd.counts["service.req_bytes_per_op"] = ratio(float64(sent), float64(rd.attempted))
	rd.counts["service.resp_bytes_per_op"] = ratio(float64(recv), float64(rd.attempted))
	for _, class := range []string{"admit", "release", "batch"} {
		rd.counts["load."+class+"_ops"] = float64(len(rd.lat[class]))
	}
}
