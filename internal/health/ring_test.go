package health

import (
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestProfileRingCapturesAndManifests(t *testing.T) {
	dir := t.TempDir()
	r, err := NewProfileRing(RingConfig{
		Dir:         dir,
		CPUDuration: 50 * time.Millisecond,
		Period:      time.Hour, // one round only
		Labels:      map[string]string{"seed": "1", "tool": "test"},
	})
	if err != nil {
		t.Fatal(err)
	}
	r.Start()
	deadline := time.Now().Add(5 * time.Second)
	for r.captures.Load() < 1 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	r.Stop()
	if r.captures.Load() < 1 {
		t.Fatalf("no capture round completed within 5s (last error: %q)", r.Status().LastError)
	}

	entries, err := ReadManifest(dir)
	if err != nil {
		t.Fatalf("reading manifest: %v", err)
	}
	var cpu, heap int
	for _, e := range entries {
		switch e.Type {
		case "cpu":
			cpu++
		case "heap":
			heap++
		default:
			t.Errorf("unknown entry type %q", e.Type)
		}
		fi, err := os.Stat(filepath.Join(dir, e.File))
		if err != nil {
			t.Errorf("manifest names missing file %s: %v", e.File, err)
			continue
		}
		if fi.Size() == 0 {
			t.Errorf("profile %s is empty", e.File)
		}
		if e.End.Before(e.Start) {
			t.Errorf("entry %d window inverted: %v .. %v", e.Seq, e.Start, e.End)
		}
		if e.Labels["seed"] != "1" {
			t.Errorf("entry %d lost labels: %+v", e.Seq, e.Labels)
		}
	}
	if cpu < 1 {
		t.Errorf("no CPU profile captured")
	}
	if heap < 1 {
		t.Errorf("no heap profile captured")
	}

	st := r.Status()
	if st.CPUProfiles != cpu || st.HeapProfs != heap {
		t.Errorf("status (%d cpu, %d heap) disagrees with manifest (%d, %d)",
			st.CPUProfiles, st.HeapProfs, cpu, heap)
	}
}

func TestProfileRingPrunes(t *testing.T) {
	dir := t.TempDir()
	r, err := NewProfileRing(RingConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	// Drive heap captures directly — no need to wait out CPU windows.
	for i := 0; i < maxPerType+3; i++ {
		if err := r.captureHeap(); err != nil {
			t.Fatal(err)
		}
	}
	entries, err := ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != maxPerType {
		t.Fatalf("manifest has %d entries after pruning, want %d", len(entries), maxPerType)
	}
	// The newest survive, and only their files remain on disk.
	for i, e := range entries {
		if want := 3 + i; e.Seq != want {
			t.Errorf("survivor %d: seq %d, want %d", i, e.Seq, want)
		}
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.pprof"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != maxPerType {
		t.Errorf("%d profile files on disk after pruning, want %d: %v", len(files), maxPerType, files)
	}
}

func TestProfileRingResumesSequence(t *testing.T) {
	dir := t.TempDir()
	r1, err := NewProfileRing(RingConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := r1.captureHeap(); err != nil {
		t.Fatal(err)
	}
	// A second ring over the same directory must continue, not clobber.
	r2, err := NewProfileRing(RingConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := r2.captureHeap(); err != nil {
		t.Fatal(err)
	}
	entries, err := ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 || entries[1].Seq <= entries[0].Seq {
		t.Fatalf("sequence did not resume: %+v", entries)
	}
}

func TestProfileRingRequiresDir(t *testing.T) {
	if _, err := NewProfileRing(RingConfig{}); err == nil {
		t.Fatal("empty Dir accepted")
	}
}

func TestProfileRingStopIdempotent(t *testing.T) {
	dir := t.TempDir()
	r, err := NewProfileRing(RingConfig{Dir: dir, CPUDuration: 10 * time.Millisecond, Period: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	r.Start()
	r.Stop()
	r.Stop()
}
