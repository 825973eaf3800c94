package service

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"testing"

	"delaycalc/internal/analysis"
	"delaycalc/internal/netspec"
	"delaycalc/internal/topo"
)

// oracleReply is how every reply used to be written, and what the reply
// writer must match byte for byte: encoding/json's Encoder indenting by two
// spaces.
func oracleReply(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	err := enc.Encode(v)
	return buf.Bytes(), err
}

// checkReply holds encodeReply to the oracle on v: the same bytes, or a
// refusal of both, and a body within the sizing pass's bound.
func checkReply(t testing.TB, name string, v any) {
	t.Helper()
	want, wantErr := oracleReply(v)
	got, err := encodeReply(v)
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("%s: writer error %v, encoding/json error %v", name, err, wantErr)
	}
	if err != nil {
		return
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: the writer and encoding/json differ:\n got %q\nwant %q", name, got, want)
	}
	e := replyEncoder{sizing: true}
	e.reply(v)
	if len(got) > e.size {
		t.Fatalf("%s: %d bytes written, sizing bounded %d", name, len(got), e.size)
	}
}

// replyStrings are names and reasons with every character class the
// string escaper treats apart.
var replyStrings = []string{
	"",
	"video",
	`<script>alert("x")</script> & more`,
	"\x00\x01\x07\x08\x0b\x0c\x0e\x1f\x7f",
	"tab\tnew\nline\rcr\bback\fform",
	`quote " back \ slash /`,
	"bad\xffutf8\xfe\xc3",
	"sep\u2028para\u2029",
	"é 日本 \U0001F600",
	"\xe2\x80",
}

// replyBounds are the Bound edge cases of TestBoundsMatchEncodingJSON.
var replyBounds = []float64{0, math.Copysign(0, -1), 1e-7, -1e-7, 1e-6, 9.999999e-7, 1e21, 9.99e20, -1e21, 5e-324,
	math.MaxFloat64, -math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN(), 1, 0.1, 1.5, 123456789.125, 1e-9, 1e100,
	-1.2345678901234567e-6, 1.2345678901234567e-6, 1.2345678901234567e20}

func rawHops(t testing.TB, hops ...any) []json.RawMessage {
	t.Helper()
	out := make([]json.RawMessage, len(hops))
	for i, h := range hops {
		raw, err := json.Marshal(h)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = raw
	}
	return out
}

func TestRepliesMatchEncodingJSON(t *testing.T) {
	nan := math.NaN()
	viol := []ViolationSpec{{Connection: "b", Bound: 1.1020408163265303, Deadline: 0.5}, {Connection: "c<&>", Bound: Bound(math.Inf(1)), Deadline: 1e-7}}
	item := &BatchAdmitItem{Connection: "x", Admitted: false, Code: "deadline_missed", Reason: "r", Violations: viol, MaxBound: Bound(math.Inf(1)), Degraded: true}
	conn := netspec.ConnectionSpec{Name: "video", Sigma: 1, Rho: 0.02, Path: rawHops(t, "sw0.mid", 3, "a<b>&\u2028")}
	full := netspec.ConnectionSpec{Name: "full", Sigma: 2.5, Rho: 1e-7, AccessRate: 10, Priority: -3, Rate: 0.25, Deadline: 1e21,
		Path:     []json.RawMessage{json.RawMessage(` "s0" `), nil, json.RawMessage("[1, {\"k\" : [ ]}, {}, \"\\\"<\"]"), json.RawMessage("{\n\"a\":\t1}")},
		Envelope: &netspec.EnvelopeSpec{Points: [][2]float64{{0, 1}, {2.5, 3}}, Slope: 0.02}}
	cases := map[string]any{
		"admit minimal":       &AdmitResponse{},
		"admit accepted":      &AdmitResponse{Admitted: true, Bounds: Bounds{1}, Count: 1},
		"admit empty bounds":  &AdmitResponse{Admitted: true, Bounds: Bounds{}, Count: 1},
		"admit every field":   &AdmitResponse{Admitted: false, DryRun: true, Code: "deadline_missed", Reason: "b would miss", Violations: viol, Bounds: replyBounds, Count: 7, Degraded: true, BoundSource: "Decomposed"},
		"admit empty viol":    &AdmitResponse{Violations: []ViolationSpec{}, Count: -1},
		"admit plain NaN":     &AdmitResponse{Violations: []ViolationSpec{{Connection: "v", Deadline: nan}}},
		"admit plain Inf":     &AdmitResponse{Violations: []ViolationSpec{{Connection: "v", Deadline: math.Inf(-1)}}},
		"batch nil results":   &BatchResponse{},
		"batch empty results": &BatchResponse{DryRun: true, Results: []BatchOpResult{}},
		"batch every op shape": &BatchResponse{Admitted: 1, Rejected: 1, Released: 1, Errors: 2, Count: 3, Results: []BatchOpResult{
			{Index: 0, Op: "admit", Status: BatchStatusAdmitted, Decision: &BatchAdmitItem{Connection: "a", Admitted: true, MaxBound: 1.5}},
			{Index: 1, Op: "admit", Status: BatchStatusRejected, Decision: item},
			{Index: 2, Op: "release", Status: BatchStatusReleased, Mode: "incremental"},
			{Index: 3, Op: "release", Status: BatchStatusError, Error: &ErrorDetail{Code: CodeNotFound, Message: `no admitted connection named "<z>"`}},
			{Index: 4, Op: "admit", Status: BatchStatusError, Error: &ErrorDetail{}},
		}},
		"list nil":           &ListResponse{},
		"list empty":         &ListResponse{Utilization: []float64{}, Connections: []netspec.ConnectionSpec{}},
		"list page":          &ListResponse{Count: 3, Utilization: []float64{0.5, 0, 1e-9}, Connections: []netspec.ConnectionSpec{conn, full, {}}, NextCursor: "MkA3"},
		"list empty env":     &ListResponse{Connections: []netspec.ConnectionSpec{{Path: []json.RawMessage{}, Envelope: &netspec.EnvelopeSpec{}}, {Envelope: &netspec.EnvelopeSpec{Points: [][2]float64{}}}}},
		"list NaN util":      &ListResponse{Utilization: []float64{nan}},
		"list Inf sigma":     &ListResponse{Connections: []netspec.ConnectionSpec{{Sigma: math.Inf(1)}}},
		"list NaN point":     &ListResponse{Connections: []netspec.ConnectionSpec{{Envelope: &netspec.EnvelopeSpec{Points: [][2]float64{{0, nan}}}}}},
		"list negative zero": &ListResponse{Connections: []netspec.ConnectionSpec{{AccessRate: math.Copysign(0, -1), Rate: math.Copysign(0, -1), Deadline: math.Copysign(0, -1)}}},
		"remove":             &RemoveResponse{Removed: "video", Count: 0, Mode: "compacted"},
		"stats minimal":      &StatsResponse{},
		"stats full": &StatsResponse{Analyzer: "Integrated", Incremental: true, Admitted: 5, SnapshotVersion: math.MaxUint64, Shards: 2,
			CrossShardCommits: 1, Rebalances: 2, BaselineEpoch: 3, Tests: StatsCounter{4, 5}, Releases: StatsCounter{6, 7},
			CommitConflicts: 8, BatchEnvelopes: 9, BatchOps: 10, BatchCommits: 11,
			Affected:      []AffectedBucket{{LE: 1, Count: 1}, {LE: 16, Count: 3}, {LE: Bound(math.Inf(1)), Count: 4}},
			AffectedCount: 4, AffectedSum: 20,
			PerShard: []ShardStatSpec{{Shard: 0, Admitted: 2, Version: 9, Tests: StatsCounter{1, 0}}, {Shard: 1}}},
		"stats empty slices": &StatsResponse{Affected: []AffectedBucket{}, PerShard: []ShardStatSpec{}},
		"networks nil":       &NetworksResponse{},
		"networks empty":     &NetworksResponse{Networks: []NetworkInfo{}},
		"networks":           &NetworksResponse{Networks: []NetworkInfo{{ID: "default", Default: true, Admitted: 2, Shards: 4, SnapshotVersion: 7}, {ID: "edge"}}},
		"analyze nil":        &AnalyzeResponse{},
		"analyze full": &AnalyzeResponse{Algorithm: "Integrated", Digest: "3ea1cc89", Cached: true, Bounds: replyBounds, Backlogs: Bounds{1, 1.1},
			MaxBound: Bound(nan), Degraded: true, BoundSource: "Decomposed"},
		"analyze empty": &AnalyzeResponse{Bounds: Bounds{}, Backlogs: Bounds{}},
		"error":         &errorResponse{Error: ErrorDetail{Code: CodeInternal, Message: "internal error"}},
	}
	for i, s := range replyStrings {
		n := strconv.Itoa(i)
		cases["admit strings "+n] = &AdmitResponse{Code: s, Reason: s, BoundSource: s, Violations: []ViolationSpec{{Connection: s}}}
		cases["batch strings "+n] = &BatchResponse{Results: []BatchOpResult{{Op: s, Status: s, Mode: s, Decision: &BatchAdmitItem{Connection: s, Code: s, Reason: s}, Error: &ErrorDetail{Code: s, Message: s}}}}
		cases["list strings "+n] = &ListResponse{NextCursor: s, Connections: []netspec.ConnectionSpec{{Name: s, Path: rawHops(t, s)}}}
		cases["remove strings "+n] = &RemoveResponse{Removed: s, Mode: s}
		cases["stats strings "+n] = &StatsResponse{Analyzer: s}
		cases["networks strings "+n] = &NetworksResponse{Networks: []NetworkInfo{{ID: s}}}
		cases["analyze strings "+n] = &AnalyzeResponse{Algorithm: s, Digest: s, BoundSource: s}
		cases["error strings "+n] = &errorResponse{Error: ErrorDetail{Code: s, Message: s}}
	}
	for _, f := range replyBounds {
		n := strconv.FormatFloat(f, 'g', -1, 64)
		cases["bound "+n] = &BatchResponse{Results: []BatchOpResult{{Decision: &BatchAdmitItem{MaxBound: Bound(f), Violations: []ViolationSpec{{Bound: Bound(f)}}}}}}
		cases["float "+n] = &ListResponse{Utilization: []float64{f}}
	}
	for name, v := range cases {
		checkReply(t, name, v)
	}
	want, _ := oracleReply(map[string]string{"status": "ok"})
	if !bytes.Equal(healthzBody, want) {
		t.Fatalf("healthz body %q, encoding/json %q", healthzBody, want)
	}
}

// TestReplyEncodeFailureIs500: a reply encoding/json would refuse (here a
// NaN utilization) goes out as a 500 with the internal error envelope, not
// as an empty 200.
func TestReplyEncodeFailureIs500(t *testing.T) {
	w := httptest.NewRecorder()
	writeReply(w, http.StatusOK, &ListResponse{Count: 1, Utilization: []float64{0.5, math.NaN()}, Connections: []netspec.ConnectionSpec{}})
	if w.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", w.Code)
	}
	if ct := w.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type %q", ct)
	}
	want, err := oracleReply(errorResponse{Error: ErrorDetail{Code: CodeInternal, Message: "reply carries an unsupported value: NaN"}})
	if err != nil {
		t.Fatal(err)
	}
	if w.Body.String() != string(want) {
		t.Fatalf("body %q, want %q", w.Body, want)
	}
}

// FuzzReplyBytes holds the writer to encoding/json over replies built from
// random strings, float bit patterns and slice lengths.
func FuzzReplyBytes(f *testing.F) {
	f.Add("video", "b would miss its deadline", uint64(0x3ff0000000000000), uint64(0x7ff8000000000001), uint8(3))
	f.Add("<&>\u2028", "\xff\x00\n", uint64(0x7ff0000000000000), uint64(1), uint8(0))
	f.Add("", "", uint64(0x8000000000000000), uint64(0x44b52d02c7e14af6), uint8(255))
	f.Fuzz(func(t *testing.T, s1, s2 string, b1, b2 uint64, n uint8) {
		f1, f2 := math.Float64frombits(b1), math.Float64frombits(b2)
		k := int(n % 17)
		bs := make([]float64, k)
		for i := range bs {
			bs[i] = f1
			if i%2 == 1 {
				bs[i] = f2
			}
		}
		var viol []ViolationSpec
		var hops []json.RawMessage
		var pts [][2]float64
		if n%3 != 0 {
			viol = make([]ViolationSpec, k%4)
			for i := range viol {
				viol[i] = ViolationSpec{Connection: s1, Bound: Bound(f1), Deadline: f2}
			}
			hops = rawHops(t, s1, k, []any{s2, f2 == f2 && !math.IsInf(f2, 0)})
			indented, err := json.MarshalIndent(map[string]any{"x": s2, "y": []int{k, 1}}, " ", "\t")
			if err != nil {
				t.Fatal(err)
			}
			hops = append(hops, indented)
			pts = make([][2]float64, k%3)
			for i := range pts {
				pts[i] = [2]float64{f1, f2}
			}
		}
		conn := netspec.ConnectionSpec{Name: s2, Sigma: f1, Rho: f2, AccessRate: f2, Path: hops, Priority: k - 8, Rate: f1, Deadline: f2}
		if n%2 == 1 {
			conn.Envelope = &netspec.EnvelopeSpec{Points: pts, Slope: f1}
		}
		item := &BatchAdmitItem{Connection: s1, Admitted: n%2 == 0, Code: s2, Reason: s1, Violations: viol, MaxBound: Bound(f2), Degraded: n%5 == 0}
		replies := []any{
			&AdmitResponse{Admitted: n%2 == 0, DryRun: n%3 == 0, Code: s1, Reason: s2, Violations: viol, Bounds: bs, Count: k, Degraded: n%5 == 0, BoundSource: s1},
			&BatchResponse{DryRun: n%2 == 0, Admitted: k, Results: []BatchOpResult{{Index: k, Op: s1, Status: s2, Decision: item, Mode: s2}, {Error: &ErrorDetail{Code: s1, Message: s2}}}, Count: k},
			&ListResponse{Count: k, Utilization: bs, Connections: []netspec.ConnectionSpec{conn}, NextCursor: s1},
			&RemoveResponse{Removed: s1, Count: k, Mode: s2},
			&StatsResponse{Analyzer: s1, Affected: []AffectedBucket{{LE: Bound(f1), Count: b2}}, PerShard: make([]ShardStatSpec, k%3), SnapshotVersion: b1},
			&NetworksResponse{Networks: []NetworkInfo{{ID: s1, Admitted: k, SnapshotVersion: b2}}},
			&AnalyzeResponse{Algorithm: s1, Digest: s2, Bounds: bs, Backlogs: bs[:k/2], MaxBound: Bound(f1), BoundSource: s2},
			&errorResponse{Error: ErrorDetail{Code: s1, Message: s2}},
		}
		for _, v := range replies {
			checkReply(t, "fuzz", v)
		}
	})
}

// admitReply1000 is the admit reply of a 1,000-connection network.
func admitReply1000() *AdmitResponse {
	rng := rand.New(rand.NewSource(1))
	bs := make(Bounds, 1000)
	for i := range bs {
		bs[i] = 0.5 + rng.ExpFloat64()*20
	}
	return &AdmitResponse{Admitted: true, Bounds: bs, Count: len(bs)}
}

// discardWriter is a ResponseWriter that drops the body.
type discardWriter struct{ h http.Header }

func (d discardWriter) Header() http.Header         { return d.h }
func (d discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (d discardWriter) WriteHeader(int)             {}

// TestAdmitReplyAllocs pins writing a 1,000-bound admit reply to one
// allocation: its body.
func TestAdmitReplyAllocs(t *testing.T) {
	resp := admitReply1000()
	w := discardWriter{h: http.Header{}}
	if n := testing.AllocsPerRun(50, func() { writeReply(w, http.StatusOK, resp) }); n > 1 {
		t.Fatalf("writing a 1,000-bound admit reply makes %v allocations, want at most 1", n)
	}
}

// BenchmarkAdmitReply writes a 1,000-bound admit reply through
// encoding/json (the oracle) and through the reply writer.
func BenchmarkAdmitReply(b *testing.B) {
	resp := admitReply1000()
	w := discardWriter{h: http.Header{}}
	b.Run("encoding_json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusOK)
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			if err := enc.Encode(resp); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("writer", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			writeReply(w, http.StatusOK, resp)
		}
	})
}

// TestServiceDocAdmitExample renders docs/SERVICE.md's test-and-admit
// example against the paper tandem delayd -tandem 4 serves and holds the
// documented reply to the bytes the daemon sends.
func TestServiceDocAdmitExample(t *testing.T) {
	doc, err := os.ReadFile("../../docs/SERVICE.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(doc), "### `POST /v2/networks/{id}/connections`")
	if !ok {
		t.Fatal("SERVICE.md has no test-and-admit section")
	}
	_, block, _ := strings.Cut(section, "```\n")
	block, _, _ = strings.Cut(block, "```\n")
	cmd, reply, ok := strings.Cut(block, "}}'\n")
	if !ok {
		t.Fatalf("no curl command ending in }}' in the example:\n%s", block)
	}
	_, body, ok := strings.Cut(cmd+"}}", "-d '")
	if !ok {
		t.Fatalf("no request body in the example:\n%s", block)
	}
	net, err := topo.PaperTandem(4, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	state, err := NewState(net.Servers, analysis.Integrated{})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(Config{State: state})
	if err != nil {
		t.Fatal(err)
	}
	w := do(t, srv, "POST", "/v2/networks/default/connections", body)
	if w.Code != http.StatusOK || w.Body.String() != reply {
		t.Fatalf("the example answers %d:\n%s\nSERVICE.md shows:\n%s", w.Code, w.Body, reply)
	}
}
