package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"time"

	"syccl/internal/cli"
	"syccl/internal/collective"
	"syccl/internal/core"
	"syccl/internal/engine"
	"syccl/internal/sketch"
	"syccl/internal/topology"
)

// Request is the body of POST /v1/synthesize. Topology, collective, and
// size use the same specs as the command-line tools (cli.ParseTopology /
// cli.BuildCollective / cli.ParseSize); everything else is optional and
// defaults to the server's configuration.
type Request struct {
	// Topology is a topology spec such as "dgx4", "server8", "a100x16".
	Topology string `json:"topology"`
	// Collective is a collective kind such as "allgather" or "alltoall".
	Collective string `json:"collective"`
	// Size is the aggregate data size, e.g. "64M", "1G", "1048576".
	Size string `json:"size"`
	// TimeoutMS caps synthesis wall time in milliseconds. On expiry the
	// best schedule found so far is returned with HTTP 206 and
	// partial=true. 0 (or absent) uses the server default.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// E1/E2 override the coarse/fine epoch knobs (0 = paper defaults).
	E1 float64 `json:"e1,omitempty"`
	E2 float64 `json:"e2,omitempty"`
	// Workers bounds synthesis parallelism (0 = server default). Worker
	// count never changes the schedule, so it is excluded from the
	// coalescing key.
	Workers int `json:"workers,omitempty"`
	// Seed steers nothing (no part of the pipeline is randomized), but it
	// is part of the plan identity: requests that differ only in seed get
	// distinct plans, flights and schedule ids.
	Seed int64 `json:"seed,omitempty"`
	// IncludeSchedule asks for the full transfer list in the response
	// (it is always available later via GET /v1/schedule/{id}).
	IncludeSchedule bool `json:"include_schedule,omitempty"`
	// SketchHint constrains the sketch search with a TACCL-style hint
	// spec, e.g. "dims=1,0;sizes=4,2;family=tree" (see sketch.ParseHint).
	// Hinted requests never share a flight, a stored result or a sketch
	// set with unhinted ones; solved sub-demands they do share.
	SketchHint string `json:"sketch_hint,omitempty"`
	// Stream switches the response to application/x-ndjson: one
	// "incumbent" event per improving schedule as synthesis runs,
	// terminated by a "final" event carrying the SynthesizeResponse (or
	// an "error" event). Streaming responses are always HTTP 200; late
	// failures arrive as the terminal event.
	Stream bool `json:"stream,omitempty"`
	// StopWithinPct, when positive, stops synthesis at the coarse/fine
	// boundary once the incumbent is within this percentage of its flow
	// lower bound (e.g. 5 = accept anything within 5% of provably
	// optimal). Range [0,100].
	StopWithinPct float64 `json:"stop_within_pct,omitempty"`
	// TopologyDelta degrades the topology before synthesis using the
	// delta spec syntax of topology.ParseDelta — comma-separated
	// "kill:A-B" (fail link), "node:N" (fail a non-GPU node),
	// "slow:A-B*F" (scale link β) and "lag:A-B*F" (scale link α) terms,
	// node IDs as in the base topology. The schedule is synthesized,
	// keyed, and stored against the degraded fabric; POST /v1/replan
	// additionally runs selective cache invalidation first.
	TopologyDelta string `json:"topology_delta,omitempty"`
}

// Error codes returned in the structured error body.
const (
	CodeBadRequest    = "bad_request"
	CodeBadTopology   = "bad_topology"
	CodeBadCollective = "bad_collective"
	CodeBadSize       = "bad_size"
	CodeBadHint       = "bad_hint"
	CodeBadDelta      = "bad_delta"
	CodeBodyTooLarge  = "body_too_large"
	CodeQueueFull     = "queue_full"
	CodeDraining      = "draining"
	CodeDeadline      = "deadline"
	CodeNotFound      = "not_found"
	CodeInternal      = "internal"
)

// APIError is a structured error: it renders as
// {"error":{"code":...,"message":...}} with the given HTTP status.
type APIError struct {
	Status  int    `json:"-"`
	Code    string `json:"code"`
	Message string `json:"message"`
}

func (e *APIError) Error() string { return fmt.Sprintf("%s: %s", e.Code, e.Message) }

func apiErrorf(status int, code, format string, args ...interface{}) *APIError {
	return &APIError{Status: status, Code: code, Message: fmt.Sprintf(format, args...)}
}

// DecodeRequest reads and validates a synthesize request body of at most
// maxBytes bytes. It is strict: unknown fields, trailing garbage, and
// out-of-range values are structured 400s, and oversized bodies are 413s.
// The decoder never panics on arbitrary input (FuzzDecodeRequest).
func DecodeRequest(r io.Reader, maxBytes int64) (*Request, *APIError) {
	if maxBytes <= 0 {
		maxBytes = DefaultMaxBodyBytes
	}
	lr := &io.LimitedReader{R: r, N: maxBytes + 1}
	dec := json.NewDecoder(lr)
	dec.DisallowUnknownFields()
	req := &Request{}
	if err := dec.Decode(req); err != nil {
		if lr.N <= 0 {
			return nil, apiErrorf(http.StatusRequestEntityTooLarge, CodeBodyTooLarge,
				"request body exceeds %d bytes", maxBytes)
		}
		return nil, apiErrorf(http.StatusBadRequest, CodeBadRequest, "malformed JSON body: %v", err)
	}
	// Reject trailing non-whitespace after the JSON object.
	if err := dec.Decode(&struct{}{}); err != io.EOF {
		if lr.N <= 0 {
			return nil, apiErrorf(http.StatusRequestEntityTooLarge, CodeBodyTooLarge,
				"request body exceeds %d bytes", maxBytes)
		}
		return nil, apiErrorf(http.StatusBadRequest, CodeBadRequest, "trailing data after JSON body")
	}
	if strings.TrimSpace(req.Topology) == "" {
		return nil, apiErrorf(http.StatusBadRequest, CodeBadRequest, "missing required field %q", "topology")
	}
	if strings.TrimSpace(req.Collective) == "" {
		return nil, apiErrorf(http.StatusBadRequest, CodeBadRequest, "missing required field %q", "collective")
	}
	if strings.TrimSpace(req.Size) == "" {
		return nil, apiErrorf(http.StatusBadRequest, CodeBadRequest, "missing required field %q", "size")
	}
	if req.TimeoutMS < 0 {
		return nil, apiErrorf(http.StatusBadRequest, CodeBadRequest, "timeout_ms must be >= 0, got %d", req.TimeoutMS)
	}
	if req.E1 < 0 || req.E2 < 0 {
		return nil, apiErrorf(http.StatusBadRequest, CodeBadRequest, "e1/e2 must be >= 0")
	}
	if req.Workers < 0 || req.Workers > 4096 {
		return nil, apiErrorf(http.StatusBadRequest, CodeBadRequest, "workers must be in [0,4096], got %d", req.Workers)
	}
	if req.StopWithinPct < 0 || req.StopWithinPct > 100 {
		return nil, apiErrorf(http.StatusBadRequest, CodeBadRequest,
			"stop_within_pct must be in [0,100], got %g", req.StopWithinPct)
	}
	// The hint's syntax is validated here so malformed specs fail fast
	// with a structured code; topology-dependent checks (dimension range)
	// happen in resolve once the topology is known.
	if _, err := sketch.ParseHint(req.SketchHint); err != nil {
		return nil, apiErrorf(http.StatusBadRequest, CodeBadHint, "%v", err)
	}
	// Same split for the delta: syntax here (FuzzDecodeDelta pins that
	// the parser never panics), feasibility against the topology in
	// resolve. An absent/blank delta means "healthy topology".
	if strings.TrimSpace(req.TopologyDelta) != "" {
		if _, err := topology.ParseDelta(req.TopologyDelta); err != nil {
			return nil, apiErrorf(http.StatusBadRequest, CodeBadDelta, "%v", err)
		}
	}
	return req, nil
}

// identity is everything about a resolved request that follows from its
// identity fields alone — every Request field except timeout_ms, workers,
// include_schedule and stream. Two requests that agree on
// those fields share one identity, and Server.resolve memoizes it, so it
// is read-only once built: concurrent requests plan on the same topology,
// collective and hint.
type identity struct {
	// top is the topology synthesis runs on: the base topology, or the
	// degraded one when the request carries a topology_delta. base and
	// delta keep the un-degraded inputs for the /v1/replan fast path.
	top   *topology.Topology
	base  *topology.Topology
	delta *topology.Delta
	col   *collective.Collective
	// opts are the request's core options, Workers left for the request.
	opts    core.Options
	planKey string
	id      string
}

// resolved is a fully validated, default-filled request: its identity
// plus the per-request fields. The coalescing key is derived from this
// form so that spelled-out defaults and omitted fields coalesce.
type resolved struct {
	identity
	req     *Request
	timeout time.Duration
	key     string
	// replan marks a POST /v1/replan: the delta is mandatory, the store
	// read and coalescing are skipped, and the engine call is Replan.
	replan bool
}

// maxMemoKey bounds the identity a request may leave in the resolve memo.
// Real identities are tens of bytes; a body can pad a field with a
// megabyte of whitespace and still resolve, and such a request is simply
// resolved every time.
const maxMemoKey = 1 << 10

// memoKey renders the identity fields of req, each string prefixed with
// its length so no two field lists share a rendering. The spellings are
// kept as sent: what a parser accepts is the parser's business, and a
// respelled request costs one more entry, never a wrong one.
func memoKey(req *Request) string {
	b := make([]byte, 0, 128)
	for _, f := range [...]string{req.Topology, req.Collective, req.Size, req.SketchHint, req.TopologyDelta} {
		b = strconv.AppendInt(b, int64(len(f)), 10)
		b = append(b, ':')
		b = append(b, f...)
	}
	for _, f := range [...]float64{req.E1, req.E2, req.StopWithinPct} {
		b = strconv.AppendUint(append(b, '|'), math.Float64bits(f), 16)
	}
	b = strconv.AppendInt(append(b, '|'), req.Seed, 10)
	return string(b)
}

// resolve maps request specs onto concrete objects, surfacing each
// failure as its own structured 400 code. The identity half is built
// once per distinct identity and kept in s.memo; a request whose identity
// was resolved before pays a lookup and the per-request fields below. A
// request that fails to resolve leaves nothing behind, so its error is
// recomputed each time and bad input cannot displace good entries.
func (s *Server) resolve(req *Request) (*resolved, *APIError) {
	mk := memoKey(req)
	idn, ok := s.memo.Get(mk)
	if !ok {
		var aerr *APIError
		if idn, aerr = resolveIdentity(req); aerr != nil {
			return nil, aerr
		}
		if len(mk) <= maxMemoKey {
			s.memo.Add(mk, func() *identity { return idn })
		}
	}
	r := &resolved{identity: *idn, req: req}
	r.opts.Workers = req.Workers
	if r.opts.Workers <= 0 {
		r.opts.Workers = s.opts.DefaultWorkers
	}
	r.timeout = time.Duration(req.TimeoutMS) * time.Millisecond
	if r.timeout <= 0 {
		r.timeout = s.opts.DefaultTimeout
	}
	// The timeout participates in the key: two identical demands with
	// different deadlines must not share a flight, or the longer request
	// would inherit the shorter one's (possibly Partial) result.
	r.key = r.planKey + "|to=" + strconv.FormatInt(int64(r.timeout), 10)
	return r, nil
}

// resolveIdentity does the work resolve memoizes: parse and build the
// topology (and its degraded form), the collective and the hint, and
// derive the plan key and schedule id from them.
func resolveIdentity(req *Request) (*identity, *APIError) {
	top, err := cli.ParseTopology(req.Topology)
	if err != nil {
		return nil, apiErrorf(http.StatusBadRequest, CodeBadTopology, "%v", err)
	}
	base := top
	var delta *topology.Delta
	if strings.TrimSpace(req.TopologyDelta) != "" {
		delta, err = topology.ParseDelta(req.TopologyDelta)
		if err != nil {
			return nil, apiErrorf(http.StatusBadRequest, CodeBadDelta, "%v", err)
		}
	}
	if !delta.Empty() {
		// Applying the delta up front makes the degraded fingerprint part
		// of PlanKey, so degraded and healthy requests never share a
		// flight, store entry, or schedule ID.
		top, err = delta.Apply(base)
		if err != nil {
			return nil, apiErrorf(http.StatusBadRequest, CodeBadDelta, "%v", err)
		}
	}
	size, err := cli.ParseSize(req.Size)
	if err != nil {
		return nil, apiErrorf(http.StatusBadRequest, CodeBadSize, "%v", err)
	}
	col, err := cli.BuildCollective(req.Collective, top.NumGPUs(), size)
	if err != nil {
		return nil, apiErrorf(http.StatusBadRequest, CodeBadCollective, "%v", err)
	}
	// The hint re-parses into its canonical *sketch.Hint, so two
	// spellings of the same hint coalesce (PlanKey embeds the canonical
	// form). Syntax was already checked in DecodeRequest; the dimension
	// range check needs the topology.
	hint, err := sketch.ParseHint(req.SketchHint)
	if err != nil {
		return nil, apiErrorf(http.StatusBadRequest, CodeBadHint, "%v", err)
	}
	if err := hint.Validate(top.NumDims()); err != nil {
		return nil, apiErrorf(http.StatusBadRequest, CodeBadHint, "%v", err)
	}
	opts := core.Options{
		E1:         req.E1,
		E2:         req.E2,
		Seed:       req.Seed,
		Search:     sketch.SearchOptions{Hint: hint},
		StopWithin: req.StopWithinPct / 100,
	}
	// Workers is not part of the plan key (worker count never changes the
	// schedule), so the key of the worker-less options is the request's.
	planKey := engine.PlanKey(top, col, opts)
	return &identity{
		top: top, base: base, delta: delta, col: col, opts: opts,
		planKey: planKey, id: scheduleID(planKey),
	}, nil
}
