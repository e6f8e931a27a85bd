package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"syccl/internal/schedule"
)

// scheduleID derives the stable fetch id for a stored result from the
// engine plan key: duplicate demands — warm or cold, whatever their
// deadline — address the same stored schedule.
func scheduleID(planKey string) string {
	sum := sha256.Sum256([]byte(planKey))
	return hex.EncodeToString(sum[:8])
}

// PieceJSON mirrors schedule.Piece on the wire.
type PieceJSON struct {
	Chunks []int   `json:"chunks"`
	Bytes  float64 `json:"bytes"`
}

// TransferJSON mirrors schedule.Transfer on the wire.
type TransferJSON struct {
	Src   int   `json:"src"`
	Dst   int   `json:"dst"`
	Piece int   `json:"piece"`
	Dim   int   `json:"dim"`
	Deps  []int `json:"deps,omitempty"`
	Order int   `json:"order"`
}

// ScheduleJSON is the wire form of a schedule. It round-trips exactly:
// ToScheduleJSON followed by Schedule() reproduces the original transfer
// list, so clients can re-validate served schedules with the chunk-replay
// oracle.
type ScheduleJSON struct {
	NumGPUs   int            `json:"num_gpus"`
	Pieces    []PieceJSON    `json:"pieces"`
	Transfers []TransferJSON `json:"transfers"`
}

// ToScheduleJSON converts a schedule for the wire. The result aliases
// the schedule's Chunks and Deps slices: it is a view to marshal and
// drop, not to modify or keep past the schedule. Schedule() is the
// direction that hands out an owned copy.
func ToScheduleJSON(s *schedule.Schedule) *ScheduleJSON {
	if s == nil {
		return nil
	}
	out := &ScheduleJSON{
		NumGPUs:   s.NumGPUs,
		Pieces:    make([]PieceJSON, len(s.Pieces)),
		Transfers: make([]TransferJSON, len(s.Transfers)),
	}
	for i, p := range s.Pieces {
		out.Pieces[i] = PieceJSON{Chunks: p.Chunks, Bytes: p.Bytes}
	}
	for i, t := range s.Transfers {
		out.Transfers[i] = TransferJSON{
			Src: t.Src, Dst: t.Dst, Piece: t.Piece, Dim: t.Dim,
			Deps: t.Deps, Order: t.Order,
		}
	}
	return out
}

// Schedule converts the wire form back into a schedule.
func (j *ScheduleJSON) Schedule() (*schedule.Schedule, error) {
	if j == nil {
		return nil, fmt.Errorf("serve: nil schedule")
	}
	s := &schedule.Schedule{
		NumGPUs:   j.NumGPUs,
		Pieces:    make([]schedule.Piece, len(j.Pieces)),
		Transfers: make([]schedule.Transfer, len(j.Transfers)),
	}
	for i, p := range j.Pieces {
		s.Pieces[i] = schedule.Piece{Chunks: append([]int(nil), p.Chunks...), Bytes: p.Bytes}
	}
	for i, t := range j.Transfers {
		s.Transfers[i] = schedule.Transfer{
			Src: t.Src, Dst: t.Dst, Piece: t.Piece, Dim: t.Dim,
			Deps: append([]int(nil), t.Deps...), Order: t.Order,
		}
	}
	return s, nil
}
