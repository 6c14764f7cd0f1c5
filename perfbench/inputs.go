package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"sort"
	"time"

	"rushprobe"
)

// inputsVersion changes whenever a generator below changes, so inputs
// cached by an older harness are rebuilt rather than trusted.
const inputsVersion = "perfbench-inputs-1"

const (
	epochSeconds = 86400
	slotSeconds  = 3600
	slots        = 24
	// obsPerEpoch is a node's probed contacts per epoch: the fleet
	// co-sim measured 26305 observations over 200 nodes × 10 epochs.
	obsPerEpoch = 13
)

// nodeModel is one node's ground truth: two rush windows, the share of
// its contacts falling in them, and its mean contact length. Every
// node's model derives from (seed, node index) alone.
type nodeModel struct {
	rush      [2]int
	width     int
	rushShare float64
	meanLen   float64
}

func newNodeModel(seed uint64, i int) nodeModel {
	r := rand.New(rand.NewPCG(seed, uint64(i)))
	return nodeModel{
		rush:      [2]int{r.IntN(slots), r.IntN(slots)},
		width:     1 + r.IntN(3),
		rushShare: 0.5 + 0.4*r.Float64(),
		meanLen:   1 + 3*r.Float64(),
	}
}

// observation draws one contact of the model's node in epoch e.
func (m nodeModel) observation(r *rand.Rand, node string, e int) rushprobe.Observation {
	slot := r.IntN(slots)
	if r.Float64() < m.rushShare {
		slot = (m.rush[r.IntN(2)] + r.IntN(m.width)) % slots
	}
	length := math.Min(60, 0.2+r.ExpFloat64()*m.meanLen)
	start := float64(e*epochSeconds+slot*slotSeconds) + r.Float64()*(slotSeconds-length)
	return rushprobe.Observation{
		Node:     node,
		Time:     math.Round(start*1000) / 1000,
		Length:   math.Round(length*1000) / 1000,
		Uploaded: math.Round(length * 250),
	}
}

// epoch draws the node's obsPerEpoch contacts of epoch e, in time order.
func (m nodeModel) epoch(seed uint64, i int, node string, e int) []rushprobe.Observation {
	r := rand.New(rand.NewPCG(seed^0x9e3779b97f4a7c15, uint64(i)<<20|uint64(e)))
	obs := make([]rushprobe.Observation, obsPerEpoch)
	for k := range obs {
		obs[k] = m.observation(r, node, e)
	}
	sort.Slice(obs, func(a, b int) bool { return obs[a].Time < obs[b].Time })
	return obs
}

func nodeID(prefix string, i int) string { return fmt.Sprintf("%s%06d", prefix, i) }

// observeBody is a POST /v1/observe body.
func observeBody(obs []rushprobe.Observation) []byte {
	b, err := json.Marshal(struct {
		Observations []rushprobe.Observation `json:"observations"`
	}{obs})
	if err != nil {
		panic(err) // finite floats and strings always marshal
	}
	return b
}

// cached returns the input file name+ext for this seed under work,
// building it with build when it is missing or its digest does not
// match the one recorded when it was built. Only the newest few inputs
// of each kind are kept.
func cached(work, name string, seed uint64, build func(w io.Writer) error) (string, error) {
	path := filepath.Join(work, fmt.Sprintf("%s-%d.input", name, seed))
	sumPath := path + ".sha256"
	if want, err := os.ReadFile(sumPath); err == nil {
		if got, err := fileDigest(path); err == nil && got == string(want) {
			now := time.Now()
			_ = os.Chtimes(path, now, now) // recency for pruning only
			return path, nil
		}
	}
	os.Remove(sumPath)
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return "", err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	if err := build(bw); err != nil {
		f.Close()
		return "", fmt.Errorf("build %s input: %w", name, err)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return "", err
	}
	if err := f.Close(); err != nil {
		return "", err
	}
	if err := os.Rename(tmp, path); err != nil {
		return "", err
	}
	sum, err := fileDigest(path)
	if err != nil {
		return "", err
	}
	if err := os.WriteFile(sumPath, []byte(sum), 0o644); err != nil {
		return "", err
	}
	prune(work, name, 3)
	return path, nil
}

// fileDigest is the SHA-256 of the file and the generator version.
func fileDigest(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	h.Write([]byte(inputsVersion))
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// prune keeps the newest keep inputs of one kind.
func prune(work, name string, keep int) {
	paths, _ := filepath.Glob(filepath.Join(work, name+"-*.input"))
	if len(paths) <= keep {
		return
	}
	mtime := func(p string) int64 {
		fi, err := os.Stat(p)
		if err != nil {
			return 0
		}
		return fi.ModTime().UnixNano()
	}
	sort.Slice(paths, func(i, j int) bool { return mtime(paths[i]) > mtime(paths[j]) })
	for _, p := range paths[keep:] {
		os.Remove(p)
		os.Remove(p + ".sha256")
	}
}

// copyFile copies src to dst.
func copyFile(dst, src string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// readLines splits a newline-terminated file into its lines.
func readLines(path string) ([][]byte, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	lines := bytes.Split(bytes.TrimSuffix(b, []byte("\n")), []byte("\n"))
	return lines, nil
}
