package exp

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// TestE15SmokeMatchesAcrossShards runs the CI-sized sweep and requires the
// shard-count-invisibility gate to hold, with real work done.
func TestE15SmokeMatchesAcrossShards(t *testing.T) {
	res := RunE15(SmokeE15Config())
	if !res.Match() {
		var b bytes.Buffer
		res.Print(&b)
		t.Fatalf("shard counts diverged:\n%s", b.String())
	}
	r := res.Rows[0]
	if r.CompleteI == 0 || r.CompleteP == 0 {
		t.Fatalf("no frames decoded (I=%d P=%d); the worlds are not streaming", r.CompleteI, r.CompleteP)
	}
	if r.Acks == 0 {
		t.Fatal("no MFLOW acks came back")
	}
	if r.TraceDigest == 0 {
		t.Fatal("trace merge digest missing in a traced run")
	}
	if r.Events == 0 {
		t.Fatal("no events executed")
	}
}

// TestE15DigestSeesSeed makes sure the digest is not a constant: a different
// seed must move it. (Same-seed equality is what the smoke gate asserts.)
func TestE15DigestSeesSeed(t *testing.T) {
	cfg := SmokeE15Config()
	cfg.Groups, cfg.PathsPerGroup, cfg.Shards, cfg.Trace = 2, 2, []int{1}, false
	a := RunE15(cfg)
	cfg.Frames = 2
	b := RunE15(cfg)
	if a.Rows[0].Digest == b.Rows[0].Digest {
		t.Fatal("digest unchanged by a different workload; it is not hashing outputs")
	}
}

// TestE15PrintMarksWallClockLines keeps the gate-filter contract: every
// line carrying wall-clock quantities (seconds, events/s, speedup) starts
// with "wall-clock", so `grep -v '^wall-clock'` yields a stable report.
func TestE15PrintMarksWallClockLines(t *testing.T) {
	cfg := SmokeE15Config()
	cfg.Groups, cfg.PathsPerGroup, cfg.Shards, cfg.Trace = 2, 2, []int{1, 2}, false
	var fake time.Duration
	cfg.Wall = func() time.Duration { fake += time.Second; return fake }
	res := RunE15(cfg)
	var b bytes.Buffer
	res.Print(&b)
	sawRate := false
	for _, line := range strings.Split(b.String(), "\n") {
		volatile := strings.Contains(line, "events/s") || strings.Contains(line, "speedup")
		if volatile {
			sawRate = true
			if !strings.HasPrefix(line, "wall-clock") {
				t.Fatalf("volatile line not marked wall-clock: %q", line)
			}
		}
	}
	if !sawRate {
		t.Fatal("no wall-clock rate lines printed despite an injected clock")
	}
}
