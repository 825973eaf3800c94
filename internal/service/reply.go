package service

import (
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"strconv"
	"unicode/utf8"

	"delaycalc/internal/netspec"
)

// Reply writing: every JSON reply body is appended here field by field, in
// declaration order with the omitempty tags honoured, as exactly the bytes
// json.NewEncoder(w) with SetIndent("", "  ") writes for the same value:
// strings HTML-safe with U+2028/U+2029 escaped and invalid UTF-8 as
// \ufffd, two-space indentation, empty arrays as [] and a trailing
// newline. reply_test.go keeps that Encoder as the oracle. The Encoder
// itself reflects over the reply and scans it twice more (compacting the
// bound vector, then indenting); on a thousand-bound admit that cost as
// much as the admission test (docs/PERFORMANCE.md, "Replies written, not
// reflected").

// maxFloatLen bounds the length of one float as appendBound writes it:
// a sign, "0.00000" and 17 significant digits for values just above 1e-6.
const maxFloatLen = 25

const hex = "0123456789abcdef"

// spaces is the indentation appended after each newline, two per level.
const spaces = "                                "

// replyEncoder appends one reply. It runs each writer twice: a sizing pass
// adds up an upper bound on the reply's length, then a fill pass appends
// into one buffer of that capacity, so a reply costs one allocation.
type replyEncoder struct {
	buf    []byte
	size   int // sizing pass: bytes bounded so far
	sizing bool
	depth  int   // objects and arrays open
	first  bool  // the innermost open one has no element yet
	err    error // a value encoding/json refuses
}

// encodeReply returns the body of v, a pointer to one of the reply types
// reply switches on. The error reports a value encoding/json would refuse:
// a non-finite plain float64.
func encodeReply(v any) ([]byte, error) {
	e := replyEncoder{sizing: true}
	e.reply(v)
	if e.err != nil {
		return nil, e.err
	}
	e = replyEncoder{buf: make([]byte, 0, e.size)}
	e.reply(v)
	return e.buf, nil
}

// writeReply builds v's body in full, then writes it with its status; a
// body encoding/json would have refused goes out as a 500 with the
// internal error envelope.
func writeReply(w http.ResponseWriter, status int, v any) {
	body, err := encodeReply(v)
	if err != nil {
		status = http.StatusInternalServerError
		body, _ = encodeReply(&errorResponse{Error: ErrorDetail{Code: CodeInternal, Message: err.Error()}})
	}
	writeBody(w, status, body)
}

// jsonContentType is the Content-Type header value of every reply, shared
// read-only so setting it does not allocate.
var jsonContentType = []string{"application/json"}

// writeBody sends a finished JSON body in one Write. A failed Write means
// the client is gone; there is no one left to report it to.
func writeBody(w http.ResponseWriter, status int, body []byte) {
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(status)
	_, _ = w.Write(body)
}

// healthzBody is the healthz reply, {"status": "ok"}.
var healthzBody = []byte("{\n  \"status\": \"ok\"\n}\n")

func (e *replyEncoder) reply(v any) {
	switch r := v.(type) {
	case *AdmitResponse:
		e.admit(r)
	case *BatchResponse:
		e.batch(r)
	case *ListResponse:
		e.list(r)
	case *RemoveResponse:
		e.remove(r)
	case *StatsResponse:
		e.stats(r)
	case *NetworksResponse:
		e.networks(r)
	case *AnalyzeResponse:
		e.analyze(r)
	case *errorResponse:
		e.open('{')
		e.key("error")
		e.errorDetail(&r.Error)
		e.close('}')
	default:
		panic("service: no reply writer for this type")
	}
	e.putByte('\n')
}

func (e *replyEncoder) put(s string) {
	if e.sizing {
		e.size += len(s)
		return
	}
	e.buf = append(e.buf, s...)
}

func (e *replyEncoder) putByte(c byte) {
	if e.sizing {
		e.size++
		return
	}
	e.buf = append(e.buf, c)
}

func (e *replyEncoder) newline(depth int) {
	e.putByte('\n')
	for ; 2*depth > len(spaces); depth -= len(spaces) / 2 {
		e.put(spaces)
	}
	e.put(spaces[:2*depth])
}

// open starts an object ('{') or an array ('[').
func (e *replyEncoder) open(c byte) {
	e.putByte(c)
	e.depth++
	e.first = true
}

// close ends the innermost object ('}') or array (']'); an empty one stays
// on its line, as {} or [].
func (e *replyEncoder) close(c byte) {
	e.depth--
	if !e.first {
		e.newline(e.depth)
	}
	e.putByte(c)
	e.first = false
}

// next starts an element of the innermost array.
func (e *replyEncoder) next() {
	if !e.first {
		e.putByte(',')
	}
	e.first = false
	e.newline(e.depth)
}

// key starts a member of the innermost object. Keys are the reply types'
// tag names, none of which needs escaping.
func (e *replyEncoder) key(k string) {
	e.next()
	e.putByte('"')
	e.put(k)
	e.put(`": `)
}

func (e *replyEncoder) bool(v bool) {
	if v {
		e.put("true")
	} else {
		e.put("false")
	}
}

func (e *replyEncoder) int(v int) {
	if e.sizing {
		e.size += 20
		return
	}
	e.buf = strconv.AppendInt(e.buf, int64(v), 10)
}

func (e *replyEncoder) uint(v uint64) {
	if e.sizing {
		e.size += 20
		return
	}
	e.buf = strconv.AppendUint(e.buf, v, 10)
}

// bound writes a Bound: null when not finite.
func (e *replyEncoder) bound(f float64) {
	if e.sizing {
		e.size += maxFloatLen
		return
	}
	e.buf = appendBound(e.buf, f)
}

// float writes a plain float64, which encoding/json refuses when it is
// not finite.
func (e *replyEncoder) float(f float64) {
	if (math.IsInf(f, 0) || math.IsNaN(f)) && e.err == nil {
		e.err = errors.New("reply carries an unsupported value: " + strconv.FormatFloat(f, 'g', -1, 64))
	}
	e.bound(f)
}

// bounds writes a Bounds: a nil vector is [] like a non-nil empty one.
func (e *replyEncoder) bounds(bs []float64) {
	e.open('[')
	for _, f := range bs {
		e.next()
		e.bound(f)
	}
	e.close(']')
}

// array writes n elements through elem, or null for a nil slice.
func (e *replyEncoder) array(n int, isNil bool, elem func(i int)) {
	if isNil {
		e.put("null")
		return
	}
	e.open('[')
	for i := 0; i < n; i++ {
		e.next()
		elem(i)
	}
	e.close(']')
}

func (e *replyEncoder) floats(fs []float64) {
	e.array(len(fs), fs == nil, func(i int) { e.float(fs[i]) })
}

// str writes s as a JSON string the way encoding/json escapes it: ", \ and
// the control characters, <, > and & for HTML, U+2028 and U+2029 for
// JavaScript, and each byte of invalid UTF-8 as \ufffd. An escape is at
// most six bytes per input byte.
func (e *replyEncoder) str(s string) {
	if e.sizing {
		e.size += 2 + 6*len(s)
		return
	}
	b := append(e.buf, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	e.buf = append(b, '"')
}

// raw writes a json.RawMessage the way encoding/json does: nil as null,
// otherwise compacted with <, > and & and U+2028/U+2029 escaped, then
// indented with the rest of the reply. The message must be valid JSON, as
// netspec.ConnectionToSpec's path hops are; encoding/json would also
// reject an invalid one. Both passes run the same loop, so the sizing is
// exact.
func (e *replyEncoder) raw(m json.RawMessage) {
	if m == nil {
		e.put("null")
		return
	}
	depth := e.depth
	inString, escaped, needIndent := false, false, false
	for i := 0; i < len(m); i++ {
		c := m[i]
		if !inString {
			switch c {
			case ' ', '\t', '\n', '\r':
				continue
			}
			if needIndent && c != '}' && c != ']' {
				needIndent = false
				depth++
				e.newline(depth)
			}
		}
		switch {
		case c == '<' || c == '>' || c == '&':
			e.put(`\u00`)
			e.putByte(hex[c>>4])
			e.putByte(hex[c&0xF])
			continue
		case c == 0xE2 && i+2 < len(m) && m[i+1] == 0x80 && m[i+2]&^1 == 0xA8:
			e.put(`\u202`)
			e.putByte("89"[m[i+2]&1])
			i += 2
			continue
		case inString:
			switch {
			case escaped:
				escaped = false
			case c == '\\':
				escaped = true
			case c == '"':
				inString = false
			}
		case c == '"':
			inString = true
		case c == '{' || c == '[':
			needIndent = true
		case c == ',':
			e.putByte(c)
			e.newline(depth)
			continue
		case c == ':':
			e.put(": ")
			continue
		case c == '}' || c == ']':
			if needIndent {
				needIndent = false
			} else {
				depth--
				e.newline(depth)
			}
		}
		e.putByte(c)
	}
}

// Fields. Each writes one object member; those passed omitEmpty skip a
// zero value as the field's omitempty tag does.

const (
	always    = false
	omitEmpty = true
)

func (e *replyEncoder) boolField(k string, v, omit bool) {
	if !v && omit {
		return
	}
	e.key(k)
	e.bool(v)
}

func (e *replyEncoder) intField(k string, v int, omit bool) {
	if v == 0 && omit {
		return
	}
	e.key(k)
	e.int(v)
}

func (e *replyEncoder) uintField(k string, v uint64) {
	e.key(k)
	e.uint(v)
}

func (e *replyEncoder) strField(k, v string, omit bool) {
	if v == "" && omit {
		return
	}
	e.key(k)
	e.str(v)
}

// floatField omits -0 as well as 0, as encoding/json does.
func (e *replyEncoder) floatField(k string, v float64, omit bool) {
	if v == 0 && omit {
		return
	}
	e.key(k)
	e.float(v)
}

func (e *replyEncoder) boundField(k string, v Bound) {
	e.key(k)
	e.bound(float64(v))
}

func (e *replyEncoder) errorDetail(d *ErrorDetail) {
	e.open('{')
	e.strField("code", d.Code, always)
	e.strField("message", d.Message, always)
	e.close('}')
}

func (e *replyEncoder) violations(vs []ViolationSpec) {
	e.array(len(vs), false, func(i int) {
		e.open('{')
		e.strField("connection", vs[i].Connection, always)
		e.boundField("bound", vs[i].Bound)
		e.floatField("deadline", vs[i].Deadline, always)
		e.close('}')
	})
}

func (e *replyEncoder) admit(r *AdmitResponse) {
	e.open('{')
	e.boolField("admitted", r.Admitted, always)
	e.boolField("dry_run", r.DryRun, omitEmpty)
	e.strField("code", r.Code, omitEmpty)
	e.strField("reason", r.Reason, omitEmpty)
	if len(r.Violations) > 0 {
		e.key("violations")
		e.violations(r.Violations)
	}
	if len(r.Bounds) > 0 {
		e.key("bounds")
		e.bounds(r.Bounds)
	}
	e.intField("count", r.Count, always)
	e.boolField("degraded", r.Degraded, omitEmpty)
	e.strField("bound_source", r.BoundSource, omitEmpty)
	e.close('}')
}

func (e *replyEncoder) batch(r *BatchResponse) {
	e.open('{')
	e.boolField("dry_run", r.DryRun, omitEmpty)
	e.intField("admitted", r.Admitted, always)
	e.intField("rejected", r.Rejected, always)
	e.intField("released", r.Released, always)
	e.intField("errors", r.Errors, always)
	e.key("results")
	e.array(len(r.Results), r.Results == nil, func(i int) { e.batchOp(&r.Results[i]) })
	e.intField("count", r.Count, always)
	e.close('}')
}

func (e *replyEncoder) batchOp(op *BatchOpResult) {
	e.open('{')
	e.intField("index", op.Index, always)
	e.strField("op", op.Op, always)
	e.strField("status", op.Status, always)
	if d := op.Decision; d != nil {
		e.key("decision")
		e.open('{')
		e.strField("connection", d.Connection, always)
		e.boolField("admitted", d.Admitted, always)
		e.strField("code", d.Code, omitEmpty)
		e.strField("reason", d.Reason, omitEmpty)
		if len(d.Violations) > 0 {
			e.key("violations")
			e.violations(d.Violations)
		}
		e.boundField("max_bound", d.MaxBound)
		e.boolField("degraded", d.Degraded, omitEmpty)
		e.close('}')
	}
	e.strField("mode", op.Mode, omitEmpty)
	if op.Error != nil {
		e.key("error")
		e.errorDetail(op.Error)
	}
	e.close('}')
}

func (e *replyEncoder) list(r *ListResponse) {
	e.open('{')
	e.intField("count", r.Count, always)
	e.key("utilization")
	e.floats(r.Utilization)
	e.key("connections")
	e.array(len(r.Connections), r.Connections == nil, func(i int) { e.connection(&r.Connections[i]) })
	e.strField("next_cursor", r.NextCursor, omitEmpty)
	e.close('}')
}

func (e *replyEncoder) connection(c *netspec.ConnectionSpec) {
	e.open('{')
	e.strField("name", c.Name, always)
	e.floatField("sigma", c.Sigma, always)
	e.floatField("rho", c.Rho, always)
	e.floatField("access_rate", c.AccessRate, omitEmpty)
	e.key("path")
	e.array(len(c.Path), c.Path == nil, func(i int) { e.raw(c.Path[i]) })
	e.intField("priority", c.Priority, omitEmpty)
	e.floatField("rate", c.Rate, omitEmpty)
	e.floatField("deadline", c.Deadline, omitEmpty)
	if env := c.Envelope; env != nil {
		e.key("envelope")
		e.open('{')
		e.key("points")
		e.array(len(env.Points), env.Points == nil, func(i int) { e.floats(env.Points[i][:]) })
		e.floatField("slope", env.Slope, always)
		e.close('}')
	}
	e.close('}')
}

func (e *replyEncoder) remove(r *RemoveResponse) {
	e.open('{')
	e.strField("removed", r.Removed, always)
	e.intField("count", r.Count, always)
	e.strField("mode", r.Mode, always)
	e.close('}')
}

func (e *replyEncoder) counter(k string, c StatsCounter) {
	e.key(k)
	e.open('{')
	e.uintField("incremental", c.Incremental)
	e.uintField("full", c.Full)
	e.close('}')
}

func (e *replyEncoder) stats(r *StatsResponse) {
	e.open('{')
	e.strField("analyzer", r.Analyzer, always)
	e.boolField("incremental", r.Incremental, always)
	e.intField("admitted", r.Admitted, always)
	e.uintField("snapshot_version", r.SnapshotVersion)
	e.intField("shards", r.Shards, always)
	e.uintField("cross_shard_commits", r.CrossShardCommits)
	e.uintField("rebalances", r.Rebalances)
	e.uintField("baseline_epoch", r.BaselineEpoch)
	e.counter("tests", r.Tests)
	e.counter("releases", r.Releases)
	e.uintField("commit_conflicts", r.CommitConflicts)
	e.uintField("batch_envelopes", r.BatchEnvelopes)
	e.uintField("batch_ops", r.BatchOps)
	e.uintField("batch_commits", r.BatchCommits)
	e.key("affected_histogram")
	e.array(len(r.Affected), r.Affected == nil, func(i int) {
		e.open('{')
		e.boundField("le", r.Affected[i].LE)
		e.uintField("count", r.Affected[i].Count)
		e.close('}')
	})
	e.uintField("affected_count", r.AffectedCount)
	e.uintField("affected_sum", r.AffectedSum)
	if len(r.PerShard) > 0 {
		e.key("per_shard")
		e.array(len(r.PerShard), false, func(i int) {
			sh := &r.PerShard[i]
			e.open('{')
			e.intField("shard", sh.Shard, always)
			e.intField("admitted", sh.Admitted, always)
			e.uintField("version", sh.Version)
			e.counter("tests", sh.Tests)
			e.counter("releases", sh.Releases)
			e.close('}')
		})
	}
	e.close('}')
}

func (e *replyEncoder) networks(r *NetworksResponse) {
	e.open('{')
	e.key("networks")
	e.array(len(r.Networks), r.Networks == nil, func(i int) {
		n := &r.Networks[i]
		e.open('{')
		e.strField("id", n.ID, always)
		e.boolField("default", n.Default, always)
		e.intField("admitted", n.Admitted, always)
		e.intField("shards", n.Shards, always)
		e.uintField("snapshot_version", n.SnapshotVersion)
		e.close('}')
	})
	e.close('}')
}

func (e *replyEncoder) analyze(r *AnalyzeResponse) {
	e.open('{')
	e.strField("algorithm", r.Algorithm, always)
	e.strField("digest", r.Digest, always)
	e.boolField("cached", r.Cached, always)
	e.key("bounds")
	e.bounds(r.Bounds)
	if len(r.Backlogs) > 0 {
		e.key("backlogs")
		e.bounds(r.Backlogs)
	}
	e.boundField("max_bound", r.MaxBound)
	e.boolField("degraded", r.Degraded, omitEmpty)
	e.strField("bound_source", r.BoundSource, omitEmpty)
	e.close('}')
}
