package fleet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"time"

	"rushprobe/internal/drift"
	"rushprobe/internal/learn"
	"rushprobe/internal/snaplog"
	"rushprobe/internal/telemetry"
)

// The fleet's binary snapshot rides on package snaplog's CRC-framed
// log. A full snapshot is one meta frame followed by one node frame
// per node; between full snapshots (compactions) the daemon appends
// node frames for dirty nodes only. Restore replays the log with
// last-record-wins semantics, so a delta frame supersedes the node's
// frame from the preceding full snapshot.
//
// Meta frame payload (little-endian):
//
//	u8  binary snapshot version
//	u64 base-scenario fingerprint
//	u16 slots per epoch
//	u16 rush slots
//
// Node frame payload (uv = unsigned LEB128 varint; the counters are
// tiny for almost every node, so fixed u64 lanes would double the
// per-node overhead):
//
//	uv  id length, id bytes
//	u8  strategy-override length, strategy bytes (canonical name)
//	uv  epoch
//	uv  observed, uv stale
//	u8  drift flag (0 = no drift state, 1 = drift state follows)
//	  u64 events, u64 first-drift epoch (int64 bits), u64 last-drift
//	  u32 epoch contacts, f64 epoch length sum
//	  u8  stream count (0, or 3 for rate/length/share), per stream:
//	    u8 kind length, kind bytes
//	    u16 register count, per register (sorted by key):
//	      u8 key length, key bytes, f64 value
//	u32 record length, packed learn.ProfileRecord bytes
//
// Every variable-length field is length-checked before it is sliced,
// so a corrupted payload yields an error, never a panic or an
// unbounded allocation (snaplog already caps the payload itself).

// binSnapshotVersion is bumped on incompatible node-payload changes.
const binSnapshotVersion = 1

// binMetaSize is the meta frame's fixed payload size.
const binMetaSize = 1 + 8 + 2 + 2

// RecoveryInfo reports how a binary snapshot restore went: how much
// log was replayed and whether a torn tail was dropped. A torn tail is
// the expected crash artifact — the caller should log it loudly but
// may continue with the recovered prefix.
type RecoveryInfo struct {
	// Nodes is the number of distinct nodes restored.
	Nodes int
	// Frames is the number of complete frames replayed.
	Frames int
	// Generations counts meta frames seen; each one starts a full
	// snapshot that supersedes everything before it.
	Generations int
	// Truncated reports a torn tail: the log ended mid-frame and the
	// incomplete frame was dropped. TornOffset is the byte offset of
	// the tear (everything before it was replayed).
	Truncated  bool
	TornOffset int64
}

// appendMetaFrame encodes the fleet's meta payload.
func (f *Fleet) appendMetaFrame(dst []byte) []byte {
	dst = append(dst, binSnapshotVersion)
	dst = binary.LittleEndian.AppendUint64(dst, f.baseFP)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(f.cfg.Base.Slots)))
	dst = binary.LittleEndian.AppendUint16(dst, uint16(f.cfg.RushSlots))
	return dst
}

// decodeMetaFrame validates a meta payload against this fleet's
// configuration.
func (f *Fleet) decodeMetaFrame(p []byte) error {
	if len(p) != binMetaSize {
		return fmt.Errorf("meta frame is %d bytes, want %d", len(p), binMetaSize)
	}
	if v := p[0]; v != binSnapshotVersion {
		return fmt.Errorf("binary snapshot version %d, want %d", v, binSnapshotVersion)
	}
	if fp := binary.LittleEndian.Uint64(p[1:9]); fp != f.baseFP {
		return fmt.Errorf("snapshot base fingerprint %016x does not match configured base %016x", fp, f.baseFP)
	}
	if slots := int(binary.LittleEndian.Uint16(p[9:11])); slots != len(f.cfg.Base.Slots) {
		return fmt.Errorf("snapshot has %d slots per epoch, base scenario has %d", slots, len(f.cfg.Base.Slots))
	}
	if rush := int(binary.LittleEndian.Uint16(p[11:13])); rush != f.cfg.RushSlots {
		return fmt.Errorf("snapshot ranks %d rush slots, fleet is configured for %d", rush, f.cfg.RushSlots)
	}
	return nil
}

// appendNodeFrame encodes one node's state. Callers hold the shard
// lock.
func appendNodeFrame(dst []byte, n *NodeState) ([]byte, error) {
	if len(n.ID) > math.MaxUint16 {
		return nil, fmt.Errorf("node ID is %d bytes, the binary snapshot caps IDs at %d", len(n.ID), math.MaxUint16)
	}
	if len(n.Strategy) > math.MaxUint8 {
		return nil, fmt.Errorf("strategy name is %d bytes, cap is %d", len(n.Strategy), math.MaxUint8)
	}
	if n.Epoch < 0 || n.Observed < 0 || n.Stale < 0 {
		return nil, fmt.Errorf("negative counters (epoch %d, observed %d, stale %d)", n.Epoch, n.Observed, n.Stale)
	}
	dst = binary.AppendUvarint(dst, uint64(len(n.ID)))
	dst = append(dst, n.ID...)
	dst = append(dst, byte(len(n.Strategy)))
	dst = append(dst, n.Strategy...)
	dst = binary.AppendUvarint(dst, uint64(n.Epoch))
	dst = binary.AppendUvarint(dst, uint64(n.Observed))
	dst = binary.AppendUvarint(dst, uint64(n.Stale))
	var err error
	if dst, err = appendDriftBlob(dst, n.Drift); err != nil {
		return nil, err
	}
	rec := learn.ProfileRecord{Length: n.Length, Upload: n.Upload, Learner: n.Learner}
	lenAt := len(dst)
	dst = binary.LittleEndian.AppendUint32(dst, 0) // patched below
	if dst, err = rec.AppendBinary(dst); err != nil {
		return nil, err
	}
	binary.LittleEndian.PutUint32(dst[lenAt:], uint32(len(dst)-lenAt-4))
	return dst, nil
}

func appendDriftBlob(dst []byte, ds *NodeDriftState) ([]byte, error) {
	if ds == nil {
		return append(dst, 0), nil
	}
	if ds.Events < 0 {
		return nil, fmt.Errorf("negative drift event count %d", ds.Events)
	}
	if ds.Contacts < 0 || ds.Contacts > math.MaxUint32 {
		return nil, fmt.Errorf("drift contact accumulator %d out of [0, %d]", ds.Contacts, uint64(math.MaxUint32))
	}
	dst = append(dst, 1)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(ds.Events))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(int64(ds.First)))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(int64(ds.Last)))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(ds.Contacts))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(ds.LenSum))
	streams := []*drift.State{ds.Rate, ds.Length, ds.Share}
	present := 0
	for _, s := range streams {
		if s != nil {
			present++
		}
	}
	if present != 0 && present != 3 {
		return nil, fmt.Errorf("drift state has %d of 3 stream detectors", present)
	}
	dst = append(dst, byte(present))
	for _, s := range streams {
		if s == nil {
			break
		}
		if len(s.Kind) > math.MaxUint8 {
			return nil, fmt.Errorf("detector kind %q longer than %d bytes", s.Kind, math.MaxUint8)
		}
		if len(s.V) > math.MaxUint16 {
			return nil, fmt.Errorf("detector has %d registers, cap is %d", len(s.V), math.MaxUint16)
		}
		dst = append(dst, byte(len(s.Kind)))
		dst = append(dst, s.Kind...)
		dst = binary.LittleEndian.AppendUint16(dst, uint16(len(s.V)))
		keys := make([]string, 0, len(s.V))
		for k := range s.V {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			if len(k) > math.MaxUint8 {
				return nil, fmt.Errorf("detector register key %q longer than %d bytes", k, math.MaxUint8)
			}
			dst = append(dst, byte(len(k)))
			dst = append(dst, k...)
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(s.V[k]))
		}
	}
	return dst, nil
}

// nodeDecoder walks a node frame payload with bounds checks.
type nodeDecoder struct {
	p   []byte
	off int
}

func (d *nodeDecoder) need(n int) error {
	if len(d.p)-d.off < n {
		return fmt.Errorf("node frame truncated at byte %d (need %d more)", d.off, n)
	}
	return nil
}

func (d *nodeDecoder) u8() (byte, error) {
	if err := d.need(1); err != nil {
		return 0, err
	}
	v := d.p[d.off]
	d.off++
	return v, nil
}

func (d *nodeDecoder) u16() (uint16, error) {
	if err := d.need(2); err != nil {
		return 0, err
	}
	v := binary.LittleEndian.Uint16(d.p[d.off:])
	d.off += 2
	return v, nil
}

func (d *nodeDecoder) u32() (uint32, error) {
	if err := d.need(4); err != nil {
		return 0, err
	}
	v := binary.LittleEndian.Uint32(d.p[d.off:])
	d.off += 4
	return v, nil
}

func (d *nodeDecoder) u64() (uint64, error) {
	if err := d.need(8); err != nil {
		return 0, err
	}
	v := binary.LittleEndian.Uint64(d.p[d.off:])
	d.off += 8
	return v, nil
}

func (d *nodeDecoder) bytes(n int) ([]byte, error) {
	if err := d.need(n); err != nil {
		return nil, err
	}
	b := d.p[d.off : d.off+n]
	d.off += n
	return b, nil
}

// counter decodes a u64 that must fit a non-negative int64.
func (d *nodeDecoder) counter(name string) (int64, error) {
	v, err := d.u64()
	if err != nil {
		return 0, err
	}
	if v > math.MaxInt64 {
		return 0, fmt.Errorf("%s %d overflows int64", name, v)
	}
	return int64(v), nil
}

// uvarint decodes an unsigned LEB128 varint with bounds checks.
func (d *nodeDecoder) uvarint(name string) (uint64, error) {
	v, n := binary.Uvarint(d.p[d.off:])
	if n <= 0 {
		return 0, fmt.Errorf("%s: truncated or overlong varint at byte %d", name, d.off)
	}
	d.off += n
	return v, nil
}

// varintCounter decodes a varint that must fit a non-negative int64.
func (d *nodeDecoder) varintCounter(name string) (int64, error) {
	v, err := d.uvarint(name)
	if err != nil {
		return 0, err
	}
	if v > math.MaxInt64 {
		return 0, fmt.Errorf("%s %d overflows int64", name, v)
	}
	return int64(v), nil
}

// frameDecoder decodes node frames into one reused NodeState: the
// learner slices, the drift state and the detector register maps are
// overwritten frame after frame, so a replay allocates only what a
// live profile keeps (its ID, and the estimators buildProfile builds).
// The NodeState a decode returns is valid until the next decode.
type frameDecoder struct {
	ns     NodeState
	rec    learn.ProfileRecord
	drift  NodeDriftState
	states [3]drift.State
}

// knownNames interns the detector kinds and register keys the drift
// package exports, so decoding a frame's registers allocates no
// strings; an unknown name (a corrupt or future frame) is copied.
var knownNames = func() map[string]string {
	names := map[string]string{}
	for _, kind := range drift.Kinds() {
		d, err := drift.New(kind, drift.Config{})
		if err != nil {
			panic(err)
		}
		st := d.State()
		names[st.Kind] = st.Kind
		for k := range st.V {
			names[k] = k
		}
	}
	return names
}()

func intern(b []byte) string {
	if s, ok := knownNames[string(b)]; ok {
		return s
	}
	return string(b)
}

// decode parses one node frame payload.
func (fd *frameDecoder) decode(p []byte) (*NodeState, error) {
	n := &fd.ns
	d := &nodeDecoder{p: p}
	idLen, err := d.uvarint("id length")
	if err != nil {
		return nil, err
	}
	if idLen > math.MaxUint16 {
		return nil, fmt.Errorf("node ID length %d exceeds the %d cap", idLen, math.MaxUint16)
	}
	id, err := d.bytes(int(idLen))
	if err != nil {
		return nil, err
	}
	n.ID = string(id)
	stratLen, err := d.u8()
	if err != nil {
		return nil, err
	}
	strat, err := d.bytes(int(stratLen))
	if err != nil {
		return nil, err
	}
	n.Strategy = string(strat)
	epoch, err := d.varintCounter("epoch")
	if err != nil {
		return nil, err
	}
	if epoch > math.MaxInt32 {
		return nil, fmt.Errorf("epoch %d exceeds the int32 range the clock supports", epoch)
	}
	n.Epoch = int(epoch)
	if n.Observed, err = d.varintCounter("observed count"); err != nil {
		return nil, err
	}
	if n.Stale, err = d.varintCounter("stale count"); err != nil {
		return nil, err
	}
	if n.Drift, err = fd.decodeDrift(d); err != nil {
		return nil, err
	}
	recLen, err := d.u32()
	if err != nil {
		return nil, err
	}
	rec, err := d.bytes(int(recLen))
	if err != nil {
		return nil, err
	}
	if err := fd.rec.UnmarshalBinary(rec); err != nil {
		return nil, err
	}
	if d.off != len(d.p) {
		return nil, fmt.Errorf("node frame has %d trailing bytes", len(d.p)-d.off)
	}
	n.Length = fd.rec.Length
	n.Upload = fd.rec.Upload
	n.Learner = fd.rec.Learner
	return n, nil
}

func (fd *frameDecoder) decodeDrift(d *nodeDecoder) (*NodeDriftState, error) {
	flag, err := d.u8()
	if err != nil {
		return nil, err
	}
	switch flag {
	case 0:
		return nil, nil
	case 1:
	default:
		return nil, fmt.Errorf("drift flag %#02x is not 0 or 1", flag)
	}
	ds := &fd.drift
	*ds = NodeDriftState{}
	if ds.Events, err = d.counter("drift event count"); err != nil {
		return nil, err
	}
	first, err := d.u64()
	if err != nil {
		return nil, err
	}
	last, err := d.u64()
	if err != nil {
		return nil, err
	}
	ds.First, ds.Last = int(int64(first)), int(int64(last))
	contacts, err := d.u32()
	if err != nil {
		return nil, err
	}
	ds.Contacts = int(contacts)
	lenSum, err := d.u64()
	if err != nil {
		return nil, err
	}
	ds.LenSum = math.Float64frombits(lenSum)
	streams, err := d.u8()
	if err != nil {
		return nil, err
	}
	switch streams {
	case 0:
		return ds, nil
	case 3:
	default:
		return nil, fmt.Errorf("drift stream count %d is not 0 or 3", streams)
	}
	for i := range fd.states {
		s := &fd.states[i]
		kindLen, err := d.u8()
		if err != nil {
			return nil, err
		}
		kind, err := d.bytes(int(kindLen))
		if err != nil {
			return nil, err
		}
		nreg, err := d.u16()
		if err != nil {
			return nil, err
		}
		s.Kind = intern(kind)
		if s.V == nil {
			s.V = make(map[string]float64, nreg)
		}
		clear(s.V)
		prevKey := ""
		for r := 0; r < int(nreg); r++ {
			keyLen, err := d.u8()
			if err != nil {
				return nil, err
			}
			key, err := d.bytes(int(keyLen))
			if err != nil {
				return nil, err
			}
			val, err := d.u64()
			if err != nil {
				return nil, err
			}
			k := intern(key)
			if r > 0 && k <= prevKey {
				return nil, fmt.Errorf("detector registers out of order (%q after %q)", k, prevKey)
			}
			prevKey = k
			s.V[k] = math.Float64frombits(val)
		}
	}
	ds.Rate, ds.Length, ds.Share = &fd.states[0], &fd.states[1], &fd.states[2]
	return ds, nil
}

// replay admits node frames as live profiles, last record wins. Each
// frame is built into a profile as soon as it decodes and replaces its
// node's earlier profile in per-shard maps; the caller swaps those
// into (or merges them with) the fleet only after the last frame, so a
// failed replay never touches the fleet. A frame that decodes but
// fails buildProfile is held against its node ID and fails the replay
// only if no later frame for that node supersedes it — exactly the
// logs that would restore if only each node's last record were built.
type replay struct {
	f      *Fleet
	dec    frameDecoder
	shards []map[string]*profile
	failed map[string]buildFailure
}

// buildFailure is a node frame that decoded but did not build.
type buildFailure struct {
	offset int64
	err    error
}

func (f *Fleet) newReplay() *replay {
	rp := &replay{f: f, shards: make([]map[string]*profile, len(f.shards))}
	for i := range rp.shards {
		rp.shards[i] = make(map[string]*profile)
	}
	return rp
}

// reset drops everything replayed so far.
func (rp *replay) reset() {
	for _, m := range rp.shards {
		clear(m)
	}
	clear(rp.failed)
}

// add decodes the node frame at offset and admits it. A frame that
// does not decode is corruption and fails at once, superseded or not.
func (rp *replay) add(payload []byte, offset int64) error {
	n, err := rp.dec.decode(payload)
	if err != nil {
		return err
	}
	if n.ID == "" {
		return errors.New("empty node ID")
	}
	m := rp.shards[rp.f.shardIndex(n.ID)]
	p, err := rp.f.buildProfile(n)
	if err != nil {
		delete(m, n.ID)
		if rp.failed == nil {
			rp.failed = make(map[string]buildFailure)
		}
		rp.failed[n.ID] = buildFailure{offset: offset, err: err}
		return nil
	}
	if len(rp.failed) > 0 {
		delete(rp.failed, n.ID)
	}
	m[n.ID] = p
	return nil
}

// err returns the earliest build failure no later frame superseded.
func (rp *replay) err() error {
	var first *buildFailure
	for _, bf := range rp.failed {
		if first == nil || bf.offset < first.offset {
			first = &bf
		}
	}
	if first == nil {
		return nil
	}
	return first.err
}

// WriteBinarySnapshot streams a full binary snapshot of the fleet —
// one meta frame, then every node, shard by shard in sorted-ID order —
// and marks every written node clean for the delta log. Unlike the
// JSON path it never materializes the whole fleet: peak extra memory
// is one shard's ID list plus a single frame buffer, which is what
// keeps a million-node save flat. On error the output is unusable and
// some dirty flags may already be cleared; the caller must discard the
// partial file and retry a full snapshot (the daemon's compaction loop
// does exactly that).
func (f *Fleet) WriteBinarySnapshot(w io.Writer) error {
	tel := f.cfg.Telemetry
	var start time.Time
	if tel != nil {
		start = time.Now()
	}
	nodes, err := f.writeBinarySnapshot(w)
	if tel != nil {
		d := time.Since(start)
		tel.SnapshotSave.Observe(d)
		tel.Traces.Record(telemetry.Span{
			Stage:    "snapshot-save",
			Detail:   "binary",
			Shard:    -1,
			Count:    nodes,
			Start:    start,
			Duration: d,
		})
	}
	return err
}

func (f *Fleet) writeBinarySnapshot(w io.Writer) (int, error) {
	sw := snaplog.NewWriter(w)
	if err := sw.WriteFrame(snaplog.FrameMeta, f.appendMetaFrame(nil)); err != nil {
		return 0, fmt.Errorf("fleet: write snapshot meta: %w", err)
	}
	var scratch []byte
	var ns NodeState
	var ids []string
	total := 0
	for i := range f.shards {
		sh := &f.shards[i]
		sh.mu.Lock()
		ids = ids[:0]
		for id := range sh.nodes {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		for _, id := range ids {
			p := sh.nodes[id]
			var err error
			if scratch, err = f.appendProfileFrame(scratch[:0], &ns, p); err != nil {
				sh.mu.Unlock()
				return total, fmt.Errorf("fleet: node %s: %w", id, err)
			}
			//rushlint:allow locksafe — streaming snapshot: one shard locked at a time while its frames stream out, trading lock hold time for bounded memory (buffering a shard's frames would reintroduce the 1M-node snapshot spike)
			if err := sw.WriteFrame(snaplog.FrameNode, scratch); err != nil {
				sh.mu.Unlock()
				return total, fmt.Errorf("fleet: write node %s: %w", id, err)
			}
			p.dirty = false
			total++
		}
		sh.mu.Unlock()
	}
	if err := sw.Flush(); err != nil {
		return total, fmt.Errorf("fleet: flush snapshot: %w", err)
	}
	return total, nil
}

// appendProfileFrame serializes one live profile into dst, reusing
// ns's backing arrays across calls (the learner state is the only
// slice-carrying field). Callers hold the shard lock.
func (f *Fleet) appendProfileFrame(dst []byte, ns *NodeState, p *profile) ([]byte, error) {
	ns.ID = p.id
	ns.Strategy = p.strategy
	ns.Epoch = p.epoch
	ns.Observed = p.observed
	ns.Stale = p.stale
	ns.Length = p.length.State()
	ns.Upload = p.upload.State()
	p.learner.StateInto(&ns.Learner)
	ns.Drift = driftState(p)
	return appendNodeFrame(dst, ns)
}

// AppendBinaryDelta writes node frames for every dirty node (no meta
// frame) and marks them clean, returning how many were written. The
// caller appends the result to a log that already starts with a full
// snapshot. Determinism matches WriteBinarySnapshot: shards in order,
// IDs sorted within each shard. A node is marked clean once its frame
// is buffered, before the write is durable: after a failed append (or
// a failed fsync of it) the caller must assume both a torn tail and
// lost dirty flags, and write a full snapshot instead of another delta.
func (f *Fleet) AppendBinaryDelta(w io.Writer) (int, error) {
	sw := snaplog.NewWriter(w)
	var scratch []byte
	var ns NodeState
	var ids []string
	total := 0
	for i := range f.shards {
		sh := &f.shards[i]
		sh.mu.Lock()
		ids = ids[:0]
		for id, p := range sh.nodes {
			if p.dirty {
				ids = append(ids, id)
			}
		}
		sort.Strings(ids)
		for _, id := range ids {
			p := sh.nodes[id]
			var err error
			if scratch, err = f.appendProfileFrame(scratch[:0], &ns, p); err != nil {
				sh.mu.Unlock()
				return total, fmt.Errorf("fleet: node %s: %w", id, err)
			}
			//rushlint:allow locksafe — streaming snapshot: one shard locked at a time while its frames stream out, trading lock hold time for bounded memory (buffering a shard's frames would reintroduce the 1M-node snapshot spike)
			if err := sw.WriteFrame(snaplog.FrameNode, scratch); err != nil {
				sh.mu.Unlock()
				return total, fmt.Errorf("fleet: write node %s: %w", id, err)
			}
			p.dirty = false
			total++
		}
		sh.mu.Unlock()
	}
	if err := sw.Flush(); err != nil {
		return total, fmt.Errorf("fleet: flush delta: %w", err)
	}
	return total, nil
}

// DirtyNodes counts nodes changed since the last binary snapshot or
// delta append — the gauge the daemon's delta loop and compaction
// trigger read. O(nodes), one shard lock at a time.
func (f *Fleet) DirtyNodes() int {
	total := 0
	for i := range f.shards {
		sh := &f.shards[i]
		sh.mu.Lock()
		for _, p := range sh.nodes {
			if p.dirty {
				total++
			}
		}
		sh.mu.Unlock()
	}
	return total
}

// ReadBinarySnapshot restores the fleet from a binary snapshot log.
// The log must begin with a meta frame matching this fleet's
// configuration; node frames replay with last-record-wins, and a later
// meta frame starts a new generation that supersedes everything before
// it. A torn tail (crash mid-append) is dropped and reported through
// RecoveryInfo — the caller decides how loudly to surface it — while
// corruption (CRC mismatch, bad framing, undecodable node) fails hard
// without touching the fleet's current state. An empty log is an
// error, never a silent fresh start. The replay is one streaming pass:
// each frame becomes a live profile as it is read (see replay).
func (f *Fleet) ReadBinarySnapshot(r io.Reader) (*RecoveryInfo, error) {
	tel := f.cfg.Telemetry
	var start time.Time
	if tel != nil {
		start = time.Now()
	}
	info, err := f.readBinarySnapshot(r)
	if tel != nil {
		d := time.Since(start)
		tel.SnapshotRestore.Observe(d)
		n := 0
		if info != nil {
			n = info.Nodes
		}
		tel.Traces.Record(telemetry.Span{
			Stage:    "snapshot-restore",
			Detail:   "binary",
			Shard:    -1,
			Count:    n,
			Start:    start,
			Duration: d,
		})
	}
	return info, err
}

func (f *Fleet) readBinarySnapshot(r io.Reader) (*RecoveryInfo, error) {
	sr := snaplog.NewReader(r)
	info := &RecoveryInfo{}
	rp := f.newReplay()
	var buf []byte
	for {
		fr, err := sr.NextInto(buf)
		if err == io.EOF {
			break
		}
		var te *snaplog.TruncatedError
		if errors.As(err, &te) {
			info.Truncated = true
			info.TornOffset = te.Offset
			break
		}
		if err != nil {
			return nil, fmt.Errorf("fleet: read snapshot log: %w", err)
		}
		buf = fr.Payload
		switch fr.Type {
		case snaplog.FrameMeta:
			if err := f.decodeMetaFrame(fr.Payload); err != nil {
				return nil, fmt.Errorf("fleet: snapshot meta at byte %d: %w", fr.Offset, err)
			}
			// A new generation: everything before this full snapshot is
			// superseded.
			rp.reset()
			info.Generations++
		case snaplog.FrameNode:
			if info.Generations == 0 {
				return nil, fmt.Errorf("fleet: snapshot log starts with a node frame at byte %d, want a meta frame", fr.Offset)
			}
			if err := rp.add(fr.Payload, fr.Offset); err != nil {
				return nil, fmt.Errorf("fleet: node frame at byte %d: %w", fr.Offset, err)
			}
		}
		info.Frames = sr.Frames()
	}
	if info.Generations == 0 {
		if info.Truncated {
			return nil, fmt.Errorf("fleet: snapshot log torn at byte %d before a complete meta frame; nothing recoverable", info.TornOffset)
		}
		return nil, errors.New("fleet: snapshot log is empty")
	}
	if err := rp.err(); err != nil {
		return nil, err
	}
	// All-or-nothing: swap in the new maps only after every frame built.
	// The log is the source of truth these nodes came from, so they are
	// clean until the next mutation.
	var observed, stale, driftTotal int64
	for i := range f.shards {
		m := rp.shards[i]
		for _, p := range m {
			p.dirty = false
			observed += p.observed
			stale += p.stale
			driftTotal += p.driftEvents
		}
		info.Nodes += len(m)
		sh := &f.shards[i]
		sh.mu.Lock()
		sh.nodes = m
		sh.mu.Unlock()
	}
	f.accepted.Store(observed)
	f.stale.Store(stale)
	f.driftEvents.Store(driftTotal)
	return info, nil
}
