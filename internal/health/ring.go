package health

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// maxPerType bounds how many profiles of each type stay on disk; older ones
// are pruned.
const maxPerType = 8

// RingConfig parameterizes a ProfileRing. The zero value (plus Dir) is
// usable: 1 s CPU windows every 15 s.
type RingConfig struct {
	// Dir is the ring directory; created if missing. Required.
	Dir string
	// CPUDuration is the length of each CPU capture window (default 1 s).
	CPUDuration time.Duration
	// Period is the time between capture rounds (default 15 s). A round is
	// one CPU window plus one heap snapshot.
	Period time.Duration
	// Labels annotate every manifest entry with workload identity (seed,
	// protocol, figure). They are also installed as pprof labels around the
	// capture so CPU samples of the ring's own work are attributable.
	Labels map[string]string
}

// ManifestEntry is one line of the ring's manifest.jsonl: which profile file
// covers which wall-clock window, under which workload labels.
type ManifestEntry struct {
	Seq    int               `json:"seq"`
	Type   string            `json:"type"` // "cpu" or "heap"
	File   string            `json:"file"` // basename within the ring dir
	Start  time.Time         `json:"start"`
	End    time.Time         `json:"end"`
	Labels map[string]string `json:"labels,omitempty"`
}

// RingStatus is the ring's live state for /api/health.
type RingStatus struct {
	Dir         string `json:"dir"`
	Captures    int64  `json:"captures"`
	CPUProfiles int    `json:"cpu_profiles"`
	HeapProfs   int    `json:"heap_profiles"`
	LastError   string `json:"last_error,omitempty"`
}

// ProfileRing continuously captures CPU and heap pprof snapshots into a
// bounded on-disk ring. Each round records a CPUDuration CPU window and one
// heap snapshot, appends manifest entries, then prunes beyond maxPerType.
//
// The CPU profiler is a process-global singleton: if something else (a
// -cpuprofile flag, a /debug/pprof/profile request) holds it, the ring's
// capture fails for that round, records the error in its status, and simply
// retries next round. Heap snapshots are taken without forcing a GC — the
// ring must observe the runtime, not perturb it.
type ProfileRing struct {
	cfg RingConfig

	mu       sync.Mutex
	entries  []ManifestEntry
	seq      int
	lastErr  string
	captures atomic.Int64

	started atomic.Bool
	stopped atomic.Bool
	cancel  context.CancelFunc
	done    chan struct{}
}

// NewProfileRing opens (or creates) the ring directory and loads any
// existing manifest so a restarted process extends the ring rather than
// clobbering it.
func NewProfileRing(cfg RingConfig) (*ProfileRing, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("health: profile ring needs a directory")
	}
	if cfg.CPUDuration <= 0 {
		cfg.CPUDuration = time.Second
	}
	if cfg.Period <= 0 {
		cfg.Period = 15 * time.Second
	}
	if cfg.Period < cfg.CPUDuration {
		cfg.Period = cfg.CPUDuration
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("health: profile ring dir: %w", err)
	}
	r := &ProfileRing{cfg: cfg, done: make(chan struct{})}
	if prior, err := ReadManifest(cfg.Dir); err == nil {
		r.entries = prior
		for _, e := range prior {
			if e.Seq >= r.seq {
				r.seq = e.Seq + 1
			}
		}
	}
	return r, nil
}

// Start launches the capture loop: an immediate first round, then one per
// Period until Stop. A ring is single-use: Start after Stop is a no-op.
func (r *ProfileRing) Start() {
	if !r.started.CompareAndSwap(false, true) {
		return
	}
	ctx, cancel := context.WithCancel(context.Background())
	r.cancel = cancel
	labels := make([]string, 0, len(r.cfg.Labels)*2)
	for k, v := range r.cfg.Labels {
		labels = append(labels, k, v)
	}
	go pprof.Do(ctx, pprof.Labels(labels...), func(ctx context.Context) {
		defer close(r.done)
		for {
			r.captureRound(ctx)
			select {
			case <-ctx.Done():
				return
			case <-time.After(r.cfg.Period - r.cfg.CPUDuration):
			}
		}
	})
}

// Stop ends the capture loop. An in-flight CPU window is cut short but still
// written (a truncated window is a valid, shorter profile). Safe to call
// more than once.
func (r *ProfileRing) Stop() {
	if !r.started.Load() || !r.stopped.CompareAndSwap(false, true) {
		return
	}
	r.cancel()
	<-r.done
}

// captureRound records one CPU window and one heap snapshot. The heap
// snapshot runs even when Stop cut the CPU window short — it costs
// milliseconds and a final end-of-run heap picture is exactly what
// post-mortems want.
func (r *ProfileRing) captureRound(ctx context.Context) {
	if err := r.captureCPU(ctx); err != nil {
		r.setErr(err)
	}
	if err := r.captureHeap(); err != nil {
		r.setErr(err)
	}
	r.captures.Add(1)
}

func (r *ProfileRing) captureCPU(ctx context.Context) error {
	seq := r.nextSeq()
	name := fmt.Sprintf("cpu-%06d.pprof", seq)
	path := filepath.Join(r.cfg.Dir, name)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	start := time.Now()
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		os.Remove(path)
		return fmt.Errorf("cpu profiler busy: %w", err)
	}
	select {
	case <-ctx.Done():
	case <-time.After(r.cfg.CPUDuration):
	}
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		return err
	}
	return r.record(ManifestEntry{
		Seq: seq, Type: "cpu", File: name,
		Start: start, End: time.Now(), Labels: r.cfg.Labels,
	})
}

func (r *ProfileRing) captureHeap() error {
	seq := r.nextSeq()
	name := fmt.Sprintf("heap-%06d.pprof", seq)
	path := filepath.Join(r.cfg.Dir, name)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	start := time.Now()
	err = pprof.Lookup("heap").WriteTo(f, 0)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(path)
		return err
	}
	return r.record(ManifestEntry{
		Seq: seq, Type: "heap", File: name,
		Start: start, End: time.Now(), Labels: r.cfg.Labels,
	})
}

func (r *ProfileRing) nextSeq() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.seq
	r.seq++
	return s
}

func (r *ProfileRing) setErr(err error) {
	r.mu.Lock()
	r.lastErr = err.Error()
	r.mu.Unlock()
}

// record appends the entry, prunes beyond maxPerType, and rewrites the
// manifest atomically (temp file + rename) so readers never see a torn line.
func (r *ProfileRing) record(e ManifestEntry) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.entries = append(r.entries, e)

	// Prune oldest entries of this type beyond the cap, removing their files.
	var ofType []int
	for i, ent := range r.entries {
		if ent.Type == e.Type {
			ofType = append(ofType, i)
		}
	}
	if n := len(ofType) - maxPerType; n > 0 {
		drop := make(map[int]bool, n)
		for _, i := range ofType[:n] {
			drop[i] = true
			os.Remove(filepath.Join(r.cfg.Dir, r.entries[i].File))
		}
		kept := r.entries[:0]
		for i, ent := range r.entries {
			if !drop[i] {
				kept = append(kept, ent)
			}
		}
		r.entries = kept
	}

	tmp := filepath.Join(r.cfg.Dir, ".manifest.jsonl.tmp")
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, ent := range r.entries {
		if err := enc.Encode(ent); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(tmp, filepath.Join(r.cfg.Dir, "manifest.jsonl"))
}

// Status returns the ring's live state.
func (r *ProfileRing) Status() RingStatus {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := RingStatus{Dir: r.cfg.Dir, Captures: r.captures.Load(), LastError: r.lastErr}
	for _, e := range r.entries {
		switch e.Type {
		case "cpu":
			st.CPUProfiles++
		case "heap":
			st.HeapProfs++
		}
	}
	return st
}

// ReadManifest loads a ring directory's manifest.jsonl, sorted by sequence.
func ReadManifest(dir string) ([]ManifestEntry, error) {
	f, err := os.Open(filepath.Join(dir, "manifest.jsonl"))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	var out []ManifestEntry
	for {
		var e ManifestEntry
		if err := dec.Decode(&e); err == io.EOF {
			break
		} else if err != nil {
			return out, fmt.Errorf("health: ring manifest: %w", err)
		}
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out, nil
}
