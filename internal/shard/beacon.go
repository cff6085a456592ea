package shard

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/atomicio"
	"repro/internal/fault"
)

// BeaconVersion is the beacon file format version; DecodeBeacon rejects
// anything else.
const BeaconVersion = 1

// MaxBeaconBytes bounds an on-disk beacon. Real beacons are well under
// 300 bytes; anything larger is corruption, and bounding the read keeps
// a hostile or trashed file from ballooning the monitor.
const MaxBeaconBytes = 4096

// maxBeaconName bounds the free-form string fields.
const maxBeaconName = 64

// Beacon is one worker's progress heartbeat — the liveness half of the
// distributed-run story. A worker that crashes is caught by process
// exit, but a worker that hangs (NFS stall, livelock, an injected
// KindHang) exits nothing, so each worker publishes a beacon through
// atomicio at every checkpoint chunk and the coordinator's monitor
// declares it stuck when the beacon's *content* stops changing for
// longer than the stall timeout. Staleness is clocked by the monitor's
// own local monotonic clock, never the beacon's wall timestamp, so
// clock skew between machines cannot fake or mask a stall.
//
// Cursor is the absolute flat index the worker has completed
// through within [Lo, Hi); Seq increases on every write and survives
// restarts (a resumed attempt continues its predecessor's sequence), so
// any content change — even a rewrite of the same cursor — counts as
// progress.
type Beacon struct {
	Version int    `json:"version"`
	Domain  string `json:"domain"` // work domain, e.g. "dataset"
	Index   int    `json:"index"`  // shard index, 0-based
	Count   int    `json:"count"`  // total shards
	Bench   string `json:"bench,omitempty"`
	Lo      int    `json:"lo"`
	Hi      int    `json:"hi"`
	Cursor  int    `json:"cursor"`
	Seq     int64  `json:"seq"`
	Time    int64  `json:"time_unix_nano"` // informational only; never used for staleness
	PID     int    `json:"pid"`
}

// Progressed reports whether b shows progress over prev — any content
// change the monitor should treat as a sign of life.
func (b Beacon) Progressed(prev Beacon) bool {
	return b.Seq != prev.Seq || b.Cursor != prev.Cursor || b.Bench != prev.Bench
}

// BeaconPath names the beacon file for shard i of n in a domain, in the
// same directory as the shard's checkpoints.
func BeaconPath(dir, domain string, i, n int) string {
	return filepath.Join(dir, fmt.Sprintf("beacon-%s-%dof%d.json", domain, i, n))
}

// validate rejects beacons no writer of ours could have produced.
func (b Beacon) validate() error {
	switch {
	case b.Version != BeaconVersion:
		return fmt.Errorf("shard: beacon version %d, want %d", b.Version, BeaconVersion)
	case b.Domain == "" || len(b.Domain) > maxBeaconName:
		return fmt.Errorf("shard: beacon domain %q out of range", b.Domain)
	case len(b.Bench) > maxBeaconName:
		return fmt.Errorf("shard: beacon bench name too long (%d bytes)", len(b.Bench))
	case b.Count <= 0 || b.Index < 0 || b.Index >= b.Count:
		return fmt.Errorf("shard: beacon shard %d/%d out of range", b.Index, b.Count)
	case b.Lo < 0 || b.Hi < b.Lo:
		return fmt.Errorf("shard: beacon range [%d,%d) invalid", b.Lo, b.Hi)
	case b.Cursor < b.Lo || b.Cursor > b.Hi:
		return fmt.Errorf("shard: beacon cursor %d outside [%d,%d]", b.Cursor, b.Lo, b.Hi)
	case b.Seq < 0:
		return fmt.Errorf("shard: beacon sequence %d negative", b.Seq)
	case b.PID < 0:
		return fmt.Errorf("shard: beacon pid %d negative", b.PID)
	}
	return nil
}

// EncodeBeacon validates and serializes a beacon.
func EncodeBeacon(b Beacon) ([]byte, error) {
	if err := b.validate(); err != nil {
		return nil, err
	}
	return json.Marshal(b)
}

// DecodeBeacon parses and validates beacon bytes. It never panics on
// hostile input (see FuzzReadBeacon) and any beacon it accepts
// round-trips through EncodeBeacon to an equal struct.
func DecodeBeacon(data []byte) (Beacon, error) {
	var b Beacon
	if len(data) > MaxBeaconBytes {
		return b, fmt.Errorf("shard: beacon is %d bytes, max %d", len(data), MaxBeaconBytes)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		return Beacon{}, fmt.Errorf("shard: decoding beacon: %w", err)
	}
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return Beacon{}, fmt.Errorf("shard: trailing data after beacon")
	}
	if err := b.validate(); err != nil {
		return Beacon{}, err
	}
	return b, nil
}

// WriteBeacon atomically publishes a beacon. The "shard.beacon" fault
// site makes heartbeat publication itself injectable — a worker whose
// beacon write fails must fail loudly (and be restarted) rather than
// run on invisibly, since an unwatchable worker is indistinguishable
// from a stuck one.
func WriteBeacon(path string, b Beacon) error {
	if err := fault.Here("shard.beacon"); err != nil {
		return fmt.Errorf("shard: writing beacon: %w", err)
	}
	data, err := EncodeBeacon(b)
	if err != nil {
		return err
	}
	return atomicio.WriteFile(path, data, 0o644)
}

// ReadBeacon loads and validates the beacon at path.
func ReadBeacon(path string) (Beacon, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Beacon{}, err
	}
	return DecodeBeacon(data)
}
