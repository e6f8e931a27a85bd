package serve

// Persist wiring: the serving layer's half of the disk-backed plan
// store. The engine half (write-through solve entries) lives in
// internal/engine; this file handles the schedule store — the
// request-level result cache — which is flushed to a named persist
// snapshot and restored before the listener comes up, so a rebooted
// daemon answers previously served requests from the store
// (cache="store") with zero solver work. It also runs the background
// prewarmer that sweeps a configured request grid during idle capacity.

import (
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"time"

	"syccl/internal/cli"
	"syccl/internal/core"
	"syccl/internal/metrics"
	"syccl/internal/verify"
)

// scheduleStoreSnapshot names the persist snapshot holding the schedule
// store image.
const scheduleStoreSnapshot = "schedule-store"

// snapshotVersion versions the JSON image inside the (already
// container-versioned) snapshot. Bump on incompatible field changes; a
// mismatched image is ignored, which degrades to a cold boot. Version 2:
// schedule ids hash plan keys that no longer digest chunk lists.
const snapshotVersion = 2

// snapEntry is one stored result in the snapshot image.
type snapEntry struct {
	ID       string             `json:"id"`
	Resp     SynthesizeResponse `json:"resp"`
	Schedule *ScheduleJSON      `json:"schedule"`
}

// snapImage is the schedule-store snapshot payload: entries are ordered
// oldest-first so restoring in order reproduces LRU recency.
type snapImage struct {
	Version int         `json:"version"`
	Entries []snapEntry `json:"entries"`
}

// SnapshotNow flushes the current schedule store to the persist
// snapshot (latest wins). No-op without a persist store. Called
// periodically by the snapshot loop and once at the end of Drain.
func (s *Server) SnapshotNow() error {
	if s.persist == nil {
		return nil
	}
	img := snapImage{Version: snapshotVersion}
	for _, ent := range s.store.export() {
		img.Entries = append(img.Entries, snapEntry{
			ID:       ent.id,
			Resp:     ent.resp,
			Schedule: ToScheduleJSON(ent.sched),
		})
	}
	payload, err := json.Marshal(img)
	if err != nil {
		return err
	}
	return s.persist.SaveSnapshot(scheduleStoreSnapshot, payload)
}

// restoreScheduleStore loads the snapshot into the schedule store at
// boot. Restoration is defensive on top of the container checksum: an
// unreadable image, a version mismatch, or any individual entry that is
// malformed, partial, or fails the chunk-replay oracle is skipped — a
// damaged snapshot degrades to a (partially) cold boot, never to a bad
// stored schedule.
func (s *Server) restoreScheduleStore() {
	payload, ok := s.persist.LoadSnapshot(scheduleStoreSnapshot)
	if !ok {
		return
	}
	var img snapImage
	if err := json.Unmarshal(payload, &img); err != nil || img.Version != snapshotVersion {
		return
	}
	for _, ent := range img.Entries {
		if ent.ID == "" || ent.Resp.Partial || ent.Schedule == nil {
			continue
		}
		sched, err := ent.Schedule.Schedule()
		if err != nil {
			continue
		}
		col, err := cli.BuildCollective(strings.ToLower(ent.Resp.Collective), ent.Resp.NumGPUs, ent.Resp.SizeBytes)
		if err != nil || verify.CheckSchedule(col, sched) != nil {
			continue
		}
		resp := ent.Resp
		resp.Schedule = nil
		resp.Coalesced = false
		resp.Cached = false
		s.store.put(ent.ID, resp, sched)
		s.restored.Add(1)
	}
}

// snapshotLoop flushes the schedule store every interval until the
// server starts draining (Drain takes a final snapshot itself).
func (s *Server) snapshotLoop(ctx context.Context, interval time.Duration) {
	defer s.bgFlight.Add(-1)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			_ = s.SnapshotNow()
		}
	}
}

// prewarmLoop sweeps the configured request grid in the background:
// each spec is resolved and planned exactly as an API request would be,
// and the result lands in the schedule store (and, transitively, the
// engine's memory and disk tiers). The sweep uses idle capacity only —
// it waits out in-flight API requests between items and goes through
// admission like everyone else — and stops when the server drains.
func (s *Server) prewarmLoop(ctx context.Context) {
	defer s.bgFlight.Add(-1)
	for i := range s.opts.Prewarm {
		// Idle capacity only: API traffic always wins.
		for s.inFlight.Load() > 0 {
			select {
			case <-ctx.Done():
				return
			case <-time.After(10 * time.Millisecond):
			}
		}
		if ctx.Err() != nil {
			return
		}
		s.prewarmOne(ctx, &s.opts.Prewarm[i])
	}
}

func (s *Server) prewarmOne(ctx context.Context, req *Request) {
	res, aerr := s.resolve(req)
	if aerr != nil {
		s.met.prewarm.With("error").Inc()
		return
	}
	if _, ok := s.store.get(res.id); ok {
		s.met.prewarm.With("skipped").Inc()
		return
	}
	// Unrecorded and unobserved: no span tree, no incumbent stream.
	if o := s.plan(ctx, res, nil, "", nil); o.status != http.StatusOK {
		// Errors and Partials (which the pipeline kept out of the store);
		// a drain-cancelled prewarm lands here and is simply dropped.
		s.met.prewarm.With("error").Inc()
		return
	}
	s.prewarmed.Add(1)
	s.met.prewarm.With("planned").Inc()
}

// PrewarmGrid expands a topology × collective × size grid into the
// request list for Options.Prewarm, in sweep order (topology-major, so
// each topology's engine state warms before the next is touched).
func PrewarmGrid(topologies, collectives, sizes []string) []Request {
	var out []Request
	for _, top := range topologies {
		for _, col := range collectives {
			for _, size := range sizes {
				out = append(out, Request{Topology: top, Collective: col, Size: size})
			}
		}
	}
	return out
}

// buildResponse assembles the base (per-request-flag-free) response for
// a completed plan.
func (s *Server) buildResponse(res *resolved, result *core.Result) SynthesizeResponse {
	col := res.col
	bus := metrics.BusBandwidth(col.Kind, col.NumGPUs, metrics.DataBytes(col), result.Time)
	return SynthesizeResponse{
		ID:             res.id,
		Topology:       strings.ToLower(res.req.Topology),
		Collective:     col.Kind.String(),
		NumGPUs:        col.NumGPUs,
		SizeBytes:      metrics.DataBytes(col),
		PredictedTimeS: result.Time,
		BusBWGBps:      bus / 1e9,
		Transfers:      len(result.Schedule.Transfers),
		SolverCalls:    result.Stats.SolverCalls,
		Partial:        result.Partial,
	}
}
