package fleet

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"

	"rushprobe/internal/drift"
	"rushprobe/internal/learn"
	"rushprobe/internal/strategy"
	"rushprobe/internal/telemetry"
)

// snapshotVersion is bumped on incompatible snapshot layout changes.
const snapshotVersion = 1

// Snapshot is the serializable state of a Fleet: every node's learned
// estimators. Plans are not persisted — they are pure functions of the
// learned state and re-derive (bit-identically) on demand after a
// Restore. Nodes are sorted by ID so snapshot bytes are deterministic.
type Snapshot struct {
	Version int `json:"version"`
	// BaseFingerprint guards against restoring into a fleet configured
	// with a different base deployment.
	BaseFingerprint uint64      `json:"baseFingerprint,string"`
	Nodes           []NodeState `json:"nodes"`
}

// NodeState is one node's serialized profile.
type NodeState struct {
	ID string `json:"id"`
	// Strategy is the node's strategy override (canonical name); empty
	// means the fleet default, so pre-strategy snapshots restore
	// unchanged.
	Strategy string                   `json:"strategy,omitempty"`
	Epoch    int                      `json:"epoch"`
	Observed int64                    `json:"observed"`
	Stale    int64                    `json:"stale,omitempty"`
	Length   learn.ContactLengthState `json:"length"`
	Upload   learn.UploadAmountState  `json:"upload"`
	Learner  learn.RushHourState      `json:"learner"`
	// Drift is the node's drift-detection state; nil (omitted) when the
	// fleet runs without a detector and the node has never drifted, so
	// pre-drift snapshots restore unchanged.
	Drift *NodeDriftState `json:"drift,omitempty"`
}

// NodeDriftState is a node's serialized drift-detection state: the
// event counters, the current epoch's partial stream accumulators, and
// each stream detector's internal registers — everything a restarted
// daemon needs so an in-progress detection picks up exactly where it
// left off.
type NodeDriftState struct {
	// Events counts detector firings; First and Last are the epoch
	// indices of the first and latest firings. Both are only meaningful
	// when Events > 0 (a firing needs warmup, so a real first epoch is
	// never 0 and omitempty is safe).
	Events int64 `json:"events,omitempty"`
	First  int   `json:"first,omitempty"`
	Last   int   `json:"last,omitempty"`
	// Contacts and LenSum are the current epoch's partial rate/length
	// accumulators (the learner's own accumulator rides in Learner).
	Contacts int     `json:"contacts,omitempty"`
	LenSum   float64 `json:"lenSum,omitempty"`
	// Rate, Length, and Share are the per-stream detector states; nil
	// when the snapshotting fleet ran without a detector.
	Rate   *drift.State `json:"rate,omitempty"`
	Length *drift.State `json:"length,omitempty"`
	Share  *drift.State `json:"share,omitempty"`
}

// Snapshot exports the fleet's learned state.
func (f *Fleet) Snapshot() *Snapshot {
	s := &Snapshot{Version: snapshotVersion, BaseFingerprint: f.baseFP}
	for i := range f.shards {
		sh := &f.shards[i]
		sh.mu.Lock()
		for _, p := range sh.nodes {
			s.Nodes = append(s.Nodes, NodeState{
				ID:       p.id,
				Strategy: p.strategy,
				Epoch:    p.epoch,
				Observed: p.observed,
				Stale:    p.stale,
				Length:   p.length.State(),
				Upload:   p.upload.State(),
				Learner:  p.learner.State(),
				Drift:    driftState(p),
			})
		}
		sh.mu.Unlock()
	}
	sort.Slice(s.Nodes, func(a, b int) bool { return s.Nodes[a].ID < s.Nodes[b].ID })
	return s
}

// Restore replaces the fleet's profiles with the snapshot's — the JSON
// path; a binary log restores through ReadBinarySnapshot, which builds
// profiles straight from its frames. The snapshot must come from a
// fleet with the same base deployment (fingerprint-checked) and slot
// count. Cached plans survive: they are keyed by learned-state
// fingerprints, which restoring does not change.
func (f *Fleet) Restore(s *Snapshot) error {
	if s.Version != snapshotVersion {
		return fmt.Errorf("fleet: snapshot version %d, want %d", s.Version, snapshotVersion)
	}
	if s.BaseFingerprint != f.baseFP {
		return fmt.Errorf("fleet: snapshot base fingerprint %016x does not match configured base %016x", s.BaseFingerprint, f.baseFP)
	}
	restored := make(map[int]map[string]*profile, len(f.shards))
	var observed, stale, driftTotal int64
	for i := range s.Nodes {
		n := &s.Nodes[i]
		p, err := f.buildProfile(n)
		if err != nil {
			return err
		}
		si := f.shardIndex(n.ID)
		if restored[si] == nil {
			restored[si] = make(map[string]*profile)
		}
		if _, dup := restored[si][n.ID]; dup {
			return fmt.Errorf("fleet: snapshot contains node %s twice", n.ID)
		}
		restored[si][n.ID] = p
		observed += n.Observed
		stale += n.Stale
		driftTotal += p.driftEvents
	}
	// All-or-nothing: swap in the new maps only after every node parsed.
	for i := range f.shards {
		sh := &f.shards[i]
		sh.mu.Lock()
		sh.nodes = restored[i]
		if sh.nodes == nil {
			sh.nodes = make(map[string]*profile)
		}
		sh.mu.Unlock()
	}
	f.accepted.Store(observed)
	f.stale.Store(stale)
	f.driftEvents.Store(driftTotal)
	return nil
}

// buildProfile validates one serialized node against this fleet's
// configuration and hydrates it into a live profile — the shared
// admission gate of Restore (JSON whole-fleet replace),
// ReadBinarySnapshot (binary whole-fleet replace) and ImportFrames
// (live shard handoff). Any shape mismatch or undecodable estimator
// state is an error; nothing is admitted partially. The profile copies
// everything it keeps out of n, so n may be a reused scratch state.
func (f *Fleet) buildProfile(n *NodeState) (*profile, error) {
	if n.ID == "" {
		return nil, fmt.Errorf("fleet: snapshot contains a node with an empty ID")
	}
	if got := len(n.Learner.Slots); got != len(f.cfg.Base.Slots) {
		return nil, fmt.Errorf("fleet: node %s learner has %d slots, base scenario has %d", n.ID, got, len(f.cfg.Base.Slots))
	}
	if n.Learner.RushSlots != f.cfg.RushSlots {
		// RushSlots is fleet configuration, not base-scenario state,
		// so the fingerprint guard cannot catch this; a mismatch would
		// make restored nodes rank a different number of rush slots
		// than newly admitted ones.
		return nil, fmt.Errorf("fleet: node %s learner ranks %d rush slots, fleet is configured for %d", n.ID, n.Learner.RushSlots, f.cfg.RushSlots)
	}
	length, err := learn.RestoreContactLength(n.Length)
	if err != nil {
		return nil, fmt.Errorf("fleet: node %s: %w", n.ID, err)
	}
	upload, err := learn.RestoreUploadAmount(n.Upload)
	if err != nil {
		return nil, fmt.Errorf("fleet: node %s: %w", n.ID, err)
	}
	learner, err := learn.RestoreRushHourLearner(n.Learner)
	if err != nil {
		return nil, fmt.Errorf("fleet: node %s: %w", n.ID, err)
	}
	override := ""
	if n.Strategy != "" {
		strat, err := strategy.Lookup(n.Strategy)
		if err != nil {
			return nil, fmt.Errorf("fleet: node %s: %w", n.ID, err)
		}
		override = strat.Name()
	}
	p := &profile{
		id:         n.ID,
		strategy:   override,
		length:     length,
		upload:     upload,
		learner:    learner,
		epoch:      n.Epoch,
		observed:   n.Observed,
		stale:      n.Stale,
		mon:        f.newMonitor(),
		firstDrift: -1,
		lastDrift:  -1,
		// Restored nodes start dirty: the source may be a foreign
		// snapshot (e.g. a JSON import) that no binary log contains
		// yet. ReadBinarySnapshot clears the flags afterwards, since
		// there the log itself is the source.
		dirty: true,
	}
	if err := f.restoreDrift(p, n.Drift); err != nil {
		return nil, fmt.Errorf("fleet: node %s: %w", n.ID, err)
	}
	return p, nil
}

// driftState exports a profile's drift-detection state, or nil when
// there is nothing to persist (detection disabled and no recorded
// events), keeping pre-drift snapshots byte-identical.
func driftState(p *profile) *NodeDriftState {
	if p.mon == nil && p.driftEvents == 0 {
		return nil
	}
	ds := &NodeDriftState{Events: p.driftEvents}
	if p.driftEvents > 0 {
		ds.First, ds.Last = p.firstDrift, p.lastDrift
	}
	if p.mon != nil {
		ds.Contacts = p.epochContacts
		ds.LenSum = p.epochLenSum
		rs, ls, ss := p.mon.rate.State(), p.mon.length.State(), p.mon.share.State()
		ds.Rate, ds.Length, ds.Share = &rs, &ls, &ss
	}
	return ds
}

// restoreDrift applies a snapshot's drift state to a freshly built
// profile. Counters always carry over; detector registers restore only
// when this fleet runs a detector (a fleet configured without one
// keeps the history but drops the registers, and a snapshot from a
// detector-less fleet leaves the fresh detectors in warmup).
func (f *Fleet) restoreDrift(p *profile, ds *NodeDriftState) error {
	if ds == nil {
		return nil
	}
	if ds.Events < 0 {
		return fmt.Errorf("fleet: snapshot has negative drift event count %d", ds.Events)
	}
	if ds.Contacts < 0 || ds.LenSum < 0 {
		return fmt.Errorf("fleet: snapshot has negative epoch accumulators (%d contacts, %g length)", ds.Contacts, ds.LenSum)
	}
	p.driftEvents = ds.Events
	if ds.Events > 0 {
		p.firstDrift, p.lastDrift = ds.First, ds.Last
	}
	p.epochContacts = ds.Contacts
	p.epochLenSum = ds.LenSum
	if p.mon == nil {
		return nil
	}
	streams := []struct {
		det   drift.Detector
		state *drift.State
		name  string
	}{
		{p.mon.rate, ds.Rate, "rate"},
		{p.mon.length, ds.Length, "length"},
		{p.mon.share, ds.Share, "share"},
	}
	for _, s := range streams {
		if s.state == nil {
			continue
		}
		if err := s.det.Restore(*s.state); err != nil {
			return fmt.Errorf("%s stream: %w", s.name, err)
		}
	}
	return nil
}

// WriteSnapshot serializes the fleet's state as JSON. With telemetry
// armed, the full snapshot+encode pass is timed into the snapshot-save
// histogram and recorded as a span carrying the node count.
func (f *Fleet) WriteSnapshot(w io.Writer) error {
	tel := f.cfg.Telemetry
	var start time.Time
	if tel != nil {
		start = time.Now()
	}
	s := f.Snapshot()
	enc := json.NewEncoder(w)
	//rushlint:allow floatexact — JSON snapshot keeps its wire format; Go's encoder emits shortest round-trip float representations, and TestSnapshotJSONFloatRoundTrip pins the exactness
	err := enc.Encode(s)
	if tel != nil {
		d := time.Since(start)
		tel.SnapshotSave.Observe(d)
		tel.Traces.Record(telemetry.Span{
			Stage:    "snapshot-save",
			Shard:    -1,
			Count:    len(s.Nodes),
			Start:    start,
			Duration: d,
		})
	}
	if err != nil {
		return fmt.Errorf("fleet: encode snapshot: %w", err)
	}
	return nil
}

// ReadSnapshot restores the fleet's state from JSON written by
// WriteSnapshot. With telemetry armed, the decode+restore pass is timed
// into the snapshot-restore histogram.
func (f *Fleet) ReadSnapshot(r io.Reader) error {
	tel := f.cfg.Telemetry
	var start time.Time
	if tel != nil {
		start = time.Now()
	}
	var s Snapshot
	dec := json.NewDecoder(r)
	if err := dec.Decode(&s); err != nil {
		return fmt.Errorf("fleet: decode snapshot: %w", err)
	}
	err := f.Restore(&s)
	if tel != nil {
		d := time.Since(start)
		tel.SnapshotRestore.Observe(d)
		tel.Traces.Record(telemetry.Span{
			Stage:    "snapshot-restore",
			Shard:    -1,
			Count:    len(s.Nodes),
			Start:    start,
			Duration: d,
		})
	}
	return err
}
