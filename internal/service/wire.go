package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"

	"delaycalc/internal/admission"
	"delaycalc/internal/netspec"
)

// Wire types: the JSON request and response bodies of every endpoint, the
// error envelope and its stable codes, and the strict body decoding and
// encoding conventions they share.

// Stable machine-readable error codes carried by every non-2xx reply's
// envelope. The admission codes are shared with package admission so a
// Decision's code and the envelope's code can never drift apart.
const (
	CodeInvalidSpec      = admission.CodeInvalidSpec
	CodeDeadlineMissed   = admission.CodeDeadlineMissed
	CodeUnstable         = admission.CodeUnstable
	CodeUnknownAnalyzer  = "unknown_analyzer"
	CodeUnknownNetwork   = "unknown_network"
	CodeMethodNotAllowed = "method_not_allowed"
	CodeTimeout          = "timeout"
	CodeNotFound         = "not_found"
	CodeBodyTooLarge     = "body_too_large"
	CodeStaleCursor      = "stale_cursor"
	CodeInternal         = "internal"
)

// SnapshotVersionHeader carries the replica-read snapshot version on GET
// responses: the version of the immutable promoted snapshot view the
// response was served from, monotone under every commit on the network.
const SnapshotVersionHeader = "X-Snapshot-Version"

func setSnapshotVersion(w http.ResponseWriter, version uint64) {
	w.Header().Set(SnapshotVersionHeader, strconv.FormatUint(version, 10))
}

// ErrorDetail is the payload of the error envelope: a stable
// machine-readable code plus a human-readable message.
type ErrorDetail struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// errorResponse is the JSON envelope of every non-2xx reply:
//
//	{"error": {"code": "...", "message": "..."}}
type errorResponse struct {
	Error ErrorDetail `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, code, msg string) {
	writeJSON(w, status, errorResponse{Error: ErrorDetail{Code: code, Message: msg}})
}

// decodeBody decodes a JSON request body strictly, mapping the failure
// modes to the right status: 413 for an oversized body, 400 otherwise.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge, CodeBodyTooLarge,
				fmt.Sprintf("request body exceeds %d bytes", tooLarge.Limit))
			return false
		}
		writeError(w, http.StatusBadRequest, CodeInvalidSpec, "invalid JSON: "+err.Error())
		return false
	}
	// Reject trailing garbage after the document.
	if err := dec.Decode(&struct{}{}); err != io.EOF {
		writeError(w, http.StatusBadRequest, CodeInvalidSpec, "invalid JSON: trailing data after document")
		return false
	}
	return true
}

// Bound marshals a delay bound, rendering the unbounded (+Inf) and
// undefined (NaN) cases as JSON null, which plain JSON numbers cannot
// represent.
type Bound float64

// MarshalJSON implements json.Marshaler.
func (b Bound) MarshalJSON() ([]byte, error) {
	return appendBound(nil, float64(b)), nil
}

// Bounds marshals a vector of bounds like a []Bound, byte for byte, in one
// MarshalJSON call: a reply carrying one bound per admitted connection
// otherwise pays encoding/json's per-element marshaler round trip hundreds
// of times. A nil vector renders as [].
type Bounds []float64

// MarshalJSON implements json.Marshaler.
func (bs Bounds) MarshalJSON() ([]byte, error) {
	out := make([]byte, 0, 2+20*len(bs))
	out = append(out, '[')
	for i, f := range bs {
		if i > 0 {
			out = append(out, ',')
		}
		out = appendBound(out, f)
	}
	return append(out, ']'), nil
}

// appendBound appends f exactly as encoding/json renders a float64 —
// shortest round-trip digits, exponent form only below 1e-6 or from 1e21
// up, with its e-0X -> e-X clean-up — and null for +-Inf and NaN.
func appendBound(b []byte, f float64) []byte {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return append(b, "null"...)
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

// ViolationSpec mirrors admission.Violation in JSON: one connection whose
// deadline the trial network would miss, with the offending bound (null
// when unbounded) and the deadline as structured fields.
type ViolationSpec struct {
	Connection string  `json:"connection"`
	Bound      Bound   `json:"bound"`
	Deadline   float64 `json:"deadline"`
}

func toViolations(vs []admission.Violation) []ViolationSpec {
	if len(vs) == 0 {
		return nil
	}
	out := make([]ViolationSpec, len(vs))
	for i, v := range vs {
		out[i] = ViolationSpec{Connection: v.Connection, Bound: Bound(v.Bound), Deadline: v.Deadline}
	}
	return out
}

// AdmitRequest is the body of POST /v2/networks/{netid}/connections.
type AdmitRequest struct {
	Connection netspec.ConnectionSpec `json:"connection"`
	// DryRun runs the admission test without committing the connection.
	DryRun bool `json:"dry_run,omitempty"`
	// TimeoutSeconds overrides the server's soft analysis budget for this
	// request; zero keeps the server default, negative is rejected.
	TimeoutSeconds float64 `json:"timeout_seconds,omitempty"`
}

// AdmitResponse reports an admission decision. Code carries the stable
// rejection code (deadline_missed, unstable, ...) and Violations the full
// list of deadline violations; Reason stays the human-readable summary.
type AdmitResponse struct {
	Admitted   bool            `json:"admitted"`
	DryRun     bool            `json:"dry_run,omitempty"`
	Code       string          `json:"code,omitempty"`
	Reason     string          `json:"reason,omitempty"`
	Violations []ViolationSpec `json:"violations,omitempty"`
	Bounds     Bounds          `json:"bounds,omitempty"`
	Count      int             `json:"count"`
	// Degraded marks a decision whose analysis outlived its soft budget
	// and finished on decomposed ceilings, which BoundSource then names:
	// every bound is valid, some are looser than the analyzer's own.
	Degraded    bool   `json:"degraded,omitempty"`
	BoundSource string `json:"bound_source,omitempty"`
}

// BatchAdmitItem is one per-candidate outcome inside a batch response.
type BatchAdmitItem struct {
	Connection string          `json:"connection"`
	Admitted   bool            `json:"admitted"`
	Code       string          `json:"code,omitempty"`
	Reason     string          `json:"reason,omitempty"`
	Violations []ViolationSpec `json:"violations,omitempty"`
	// MaxBound is the largest per-connection bound of the item's trial
	// analysis; null when unbounded or when the candidate never analyzed.
	MaxBound Bound `json:"max_bound"`
	// Degraded marks every item of an envelope whose analysis outlived
	// its soft budget (see AdmitResponse).
	Degraded bool `json:"degraded,omitempty"`
}

// BatchOp is one operation inside POST /v2/networks/{netid}/batch: an
// admission (op "admit", with the candidate spec) or a release (op
// "release", with the admitted connection's name).
type BatchOp struct {
	Op         string                  `json:"op"`
	Connection *netspec.ConnectionSpec `json:"connection,omitempty"`
	Name       string                  `json:"name,omitempty"`
}

// BatchRequest is the body of POST /v2/networks/{netid}/batch: a mixed,
// ordered list of admit and release operations, executed in order against
// the live set (greedy semantics — each operation sees the set as left by
// its predecessors).
type BatchRequest struct {
	Operations []BatchOp `json:"operations"`
	// DryRun tests admit operations without committing them; release
	// operations are invalid in a dry-run batch (there is nothing sound to
	// report without actually removing the connection).
	DryRun bool `json:"dry_run,omitempty"`
	// TimeoutSeconds overrides the server's soft analysis budget for each
	// admit operation; zero keeps the server default, negative is rejected.
	TimeoutSeconds float64 `json:"timeout_seconds,omitempty"`
}

// Batch item statuses: every per-op envelope carries exactly one.
const (
	BatchStatusAdmitted = "admitted" // admit op: candidate committed (or passed dry-run)
	BatchStatusRejected = "rejected" // admit op: candidate failed the admission test
	BatchStatusReleased = "released" // release op: connection removed
	BatchStatusError    = "error"    // op failed outright; see the error detail
)

// BatchOpResult is the per-operation envelope of a batch response: the
// operation's index and kind, its status, and either the admission
// decision (admit ops) or the release mode (release ops) or an error
// detail.
type BatchOpResult struct {
	Index    int             `json:"index"`
	Op       string          `json:"op"`
	Status   string          `json:"status"`
	Decision *BatchAdmitItem `json:"decision,omitempty"`
	// Mode reports how a release was absorbed: "incremental" (baseline
	// shrunk in place) or "compacted" (baseline dropped, rebuilt by the
	// next test: no warm baseline, a shrink cut short by the soft budget,
	// or the next operation of the envelope is another release).
	Mode  string       `json:"mode,omitempty"`
	Error *ErrorDetail `json:"error,omitempty"`
}

// BatchResponse reports a whole mixed batch: per-operation envelopes in
// request order plus the totals.
type BatchResponse struct {
	DryRun   bool            `json:"dry_run,omitempty"`
	Admitted int             `json:"admitted"`
	Rejected int             `json:"rejected"`
	Released int             `json:"released"`
	Errors   int             `json:"errors"`
	Results  []BatchOpResult `json:"results"`
	Count    int             `json:"count"`
}

// ListResponse is the body of GET /v2/networks/{netid}/connections. Count
// is the number of connections matching the filter (the whole admitted set
// without one); Connections is the requested page and NextCursor, when
// present, fetches the next page (pass it back as ?cursor=).
type ListResponse struct {
	Count       int                      `json:"count"`
	Utilization []float64                `json:"utilization"`
	Connections []netspec.ConnectionSpec `json:"connections"`
	NextCursor  string                   `json:"next_cursor,omitempty"`
}

// RemoveResponse is the body of DELETE /v2/networks/{netid}/connections/
// {name}. Mode reports how the engine absorbed the release: "incremental"
// (the analysis baseline was shrunk in place, so the next test stays fast)
// or "compacted" (the baseline was dropped and the next test rebuilds it:
// there was no warm baseline, or the soft budget cut the shrink short).
type RemoveResponse struct {
	Removed string `json:"removed"`
	Count   int    `json:"count"`
	Mode    string `json:"mode"`
}

// StatsCounter pairs the incremental and full counts of one operation.
type StatsCounter struct {
	Incremental uint64 `json:"incremental"`
	Full        uint64 `json:"full"`
}

// AffectedBucket is one bucket of the affected-set histogram: how many
// incremental analyses had a closure of at most LE admitted connections
// (cumulative, Prometheus-style; LE null is the +Inf bucket).
type AffectedBucket struct {
	LE    Bound  `json:"le"`
	Count uint64 `json:"count"`
}

// ShardStatSpec summarizes one engine shard in the stats body.
type ShardStatSpec struct {
	Shard    int          `json:"shard"`
	Admitted int          `json:"admitted"`
	Version  uint64       `json:"version"`
	Tests    StatsCounter `json:"tests"`
	Releases StatsCounter `json:"releases"`
}

// StatsResponse is the body of GET /v2/networks/{netid}/stats: the
// admission engine's counters as a stable JSON schema. Releases.Full
// counts compacted releases (baseline dropped, rebuilt by the next test);
// AffectedSum/AffectedCount give the mean closure size alongside the
// histogram. The shard fields are additive: Shards is the configured shard
// count, CrossShardCommits the number of global epoch-stamped commits
// (component merges plus rebalances), and PerShard the per-shard breakdown.
type StatsResponse struct {
	Analyzer          string           `json:"analyzer"`
	Incremental       bool             `json:"incremental"`
	Admitted          int              `json:"admitted"`
	SnapshotVersion   uint64           `json:"snapshot_version"`
	Shards            int              `json:"shards"`
	CrossShardCommits uint64           `json:"cross_shard_commits"`
	Rebalances        uint64           `json:"rebalances"`
	BaselineEpoch     uint64           `json:"baseline_epoch"`
	Tests             StatsCounter     `json:"tests"`
	Releases          StatsCounter     `json:"releases"`
	CommitConflicts   uint64           `json:"commit_conflicts"`
	BatchEnvelopes    uint64           `json:"batch_envelopes"`
	BatchOps          uint64           `json:"batch_ops"`
	BatchCommits      uint64           `json:"batch_commits"`
	Affected          []AffectedBucket `json:"affected_histogram"`
	AffectedCount     uint64           `json:"affected_count"`
	AffectedSum       uint64           `json:"affected_sum"`
	PerShard          []ShardStatSpec  `json:"per_shard,omitempty"`
}

// NetworkInfo is one entry of the GET /v2/networks listing.
type NetworkInfo struct {
	ID              string `json:"id"`
	Default         bool   `json:"default"`
	Admitted        int    `json:"admitted"`
	Shards          int    `json:"shards"`
	SnapshotVersion uint64 `json:"snapshot_version"`
}

// NetworksResponse is the body of GET /v2/networks.
type NetworksResponse struct {
	Networks []NetworkInfo `json:"networks"`
}

// AnalyzeRequest is the body of POST /v2/networks/{netid}/analyze.
type AnalyzeRequest struct {
	// Analyzer names the algorithm ("integrated" when empty); see
	// AnalyzerNames for the accepted set.
	Analyzer string `json:"analyzer,omitempty"`
	// Network is the full netspec document to analyze.
	Network netspec.Spec `json:"network"`
	// TimeoutSeconds overrides the server's soft analysis budget for this
	// request; zero keeps the server default, negative is rejected.
	TimeoutSeconds float64 `json:"timeout_seconds,omitempty"`
}

// AnalyzeResponse reports per-connection delay bounds and per-server
// backlog bounds. Null entries mark unbounded (unstable) connections.
type AnalyzeResponse struct {
	Algorithm string `json:"algorithm"`
	Digest    string `json:"digest"`
	Cached    bool   `json:"cached"`
	Bounds    Bounds `json:"bounds"`
	Backlogs  Bounds `json:"backlogs,omitempty"`
	MaxBound  Bound  `json:"max_bound"`
	// Degraded marks a result whose analysis outlived its soft budget and
	// finished on decomposed ceilings, which BoundSource then names;
	// Algorithm is still the analyzer that ran. Never cached.
	Degraded    bool   `json:"degraded,omitempty"`
	BoundSource string `json:"bound_source,omitempty"`
}
