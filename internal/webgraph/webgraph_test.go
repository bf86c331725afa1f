package webgraph

import (
	"math"
	"testing"

	"prefetch/internal/rng"
)

func mustSite(t *testing.T, seed uint64) *Site {
	t.Helper()
	site, err := Generate(rng.New(seed), DefaultSiteConfig())
	if err != nil {
		t.Fatal(err)
	}
	return site
}

func TestGenerateShape(t *testing.T) {
	cfg := DefaultSiteConfig()
	site := mustSite(t, 1)
	if len(site.Pages) != cfg.Pages {
		t.Fatalf("%d pages", len(site.Pages))
	}
	var wsum float64
	for i, pg := range site.Pages {
		if pg.ID != i {
			t.Fatalf("page %d has ID %d", i, pg.ID)
		}
		if len(pg.Links) < cfg.MinLinks || len(pg.Links) > cfg.MaxLinks {
			t.Fatalf("page %d has %d links", i, len(pg.Links))
		}
		seen := map[int]bool{}
		for _, l := range pg.Links {
			if l == i {
				t.Fatalf("page %d links to itself", i)
			}
			if l < 0 || l >= cfg.Pages {
				t.Fatalf("page %d links out of range: %d", i, l)
			}
			if seen[l] {
				t.Fatalf("page %d has duplicate link %d", i, l)
			}
			seen[l] = true
		}
		if pg.Size < int64(cfg.MinSizeKB)*1024 || pg.Size > int64(cfg.MaxSizeKB)*1024 {
			t.Fatalf("page %d size %d out of range", i, pg.Size)
		}
		wantRetr := cfg.LatencyS + float64(pg.Size)/1024/cfg.BandwidthKBps
		if math.Abs(pg.Retrieval-wantRetr) > 1e-9 {
			t.Fatalf("page %d retrieval %v, want %v", i, pg.Retrieval, wantRetr)
		}
		wsum += pg.Weight
	}
	if math.Abs(wsum-1) > 1e-9 {
		t.Fatalf("weights sum to %v", wsum)
	}
}

func TestGenerateValidation(t *testing.T) {
	r := rng.New(2)
	bad := []SiteConfig{
		{Pages: 1, MinLinks: 1, MaxLinks: 1, MinSizeKB: 1, MaxSizeKB: 2, BandwidthKBps: 1},
		{Pages: 10, MinLinks: 0, MaxLinks: 3, MinSizeKB: 1, MaxSizeKB: 2, BandwidthKBps: 1},
		{Pages: 10, MinLinks: 5, MaxLinks: 3, MinSizeKB: 1, MaxSizeKB: 2, BandwidthKBps: 1},
		{Pages: 10, MinLinks: 1, MaxLinks: 10, MinSizeKB: 1, MaxSizeKB: 2, BandwidthKBps: 1},
		{Pages: 10, MinLinks: 1, MaxLinks: 3, MinSizeKB: 0, MaxSizeKB: 2, BandwidthKBps: 1},
		{Pages: 10, MinLinks: 1, MaxLinks: 3, MinSizeKB: 3, MaxSizeKB: 2, BandwidthKBps: 1},
		{Pages: 10, MinLinks: 1, MaxLinks: 3, MinSizeKB: 1, MaxSizeKB: 2, BandwidthKBps: 0},
		{Pages: 10, MinLinks: 1, MaxLinks: 3, MinSizeKB: 1, MaxSizeKB: 2, BandwidthKBps: 1, LatencyS: -1},
	}
	for i, cfg := range bad {
		if _, err := Generate(r, cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestNextDistributionIsDistribution(t *testing.T) {
	site := mustSite(t, 3)
	s := NewSurfer(rng.New(4), site, 0.85)
	for step := 0; step < 200; step++ {
		dist := s.NextDistribution()
		var sum float64
		for id, p := range dist {
			if p < 0 || id < 0 || id >= len(site.Pages) {
				t.Fatalf("bad entry %d:%v", id, p)
			}
			sum += p
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("step %d: distribution sums to %v", step, sum)
		}
		s.Step()
	}
}

func TestSurferStepMatchesDistribution(t *testing.T) {
	// Empirical next-page frequencies from a fixed page must match
	// NextDistribution.
	site := mustSite(t, 5)
	s := NewSurfer(rng.New(6), site, 0.85)
	start := s.Current()
	dist := s.NextDistribution()
	counts := map[int]int{}
	const reps = 200000
	for i := 0; i < reps; i++ {
		s.current = start
		counts[s.Step()]++
	}
	for id, want := range dist {
		if want < 0.01 {
			continue // skip tiny teleport slivers: too noisy to check
		}
		got := float64(counts[id]) / reps
		if math.Abs(got-want) > 0.01 {
			t.Fatalf("page %d: frequency %v, distribution says %v", id, got, want)
		}
	}
}

func TestSurferDefaultDamping(t *testing.T) {
	site := mustSite(t, 7)
	s := NewSurfer(rng.New(8), site, 0)
	if s.followProb != 0.85 {
		t.Fatalf("default damping %v", s.followProb)
	}
	s = NewSurfer(rng.New(8), site, 1.5)
	if s.followProb != 0.85 {
		t.Fatalf("out-of-range damping %v", s.followProb)
	}
}

func TestPopularPagesGetMoreInlinks(t *testing.T) {
	site := mustSite(t, 9)
	// Correlation check: the top-decile pages by weight should receive
	// clearly more inbound links than the bottom decile.
	inlinks := make([]int, len(site.Pages))
	for _, pg := range site.Pages {
		for _, l := range pg.Links {
			inlinks[l]++
		}
	}
	type pw struct {
		w  float64
		in int
	}
	items := make([]pw, len(site.Pages))
	for i, pg := range site.Pages {
		items[i] = pw{pg.Weight, inlinks[i]}
	}
	var topW, topIn, botIn float64
	var topN, botN int
	for _, it := range items {
		topW += it.w
	}
	avgW := topW / float64(len(items))
	for _, it := range items {
		if it.w > 2*avgW {
			topIn += float64(it.in)
			topN++
		} else if it.w < avgW/2 {
			botIn += float64(it.in)
			botN++
		}
	}
	if topN == 0 || botN == 0 {
		t.Skip("degenerate weight spread")
	}
	if topIn/float64(topN) <= botIn/float64(botN) {
		t.Fatalf("popular pages not preferentially linked: top avg %v vs bottom avg %v",
			topIn/float64(topN), botIn/float64(botN))
	}
}

// TestNextDistributionFrom: the distribution is a pure function of the
// page — NextDistributionFrom must match NextDistribution at the current
// page and recondition without moving the surfer.
func TestNextDistributionFrom(t *testing.T) {
	r := rng.New(3)
	site, err := Generate(r, DefaultSiteConfig())
	if err != nil {
		t.Fatal(err)
	}
	s := NewSurfer(r, site, 0.85)
	for i := 0; i < 5; i++ {
		cur := s.Current()
		a, b := s.NextDistribution(), s.NextDistributionFrom(cur)
		if len(a) != len(b) {
			t.Fatalf("step %d: sizes differ: %d vs %d", i, len(a), len(b))
		}
		for k, v := range a {
			if b[k] != v {
				t.Fatalf("step %d: dist[%d] = %v vs %v", i, k, v, b[k])
			}
		}
		other := (cur + 1) % len(site.Pages)
		s.NextDistributionFrom(other)
		if s.Current() != cur {
			t.Fatal("NextDistributionFrom moved the surfer")
		}
		s.Step()
	}
}

// driftSite builds a small site and a drifting surfer for the drift
// tests: cadence `every`, drift stream derived from (seed, "drift").
func driftSite(t *testing.T, seed uint64, every int) *Surfer {
	t.Helper()
	r := rng.New(seed)
	site, err := Generate(r, DefaultSiteConfig())
	if err != nil {
		t.Fatal(err)
	}
	s := NewSurfer(r, site, 0.85)
	s.EnableDrift(rng.Derive(seed, "drift"), every)
	return s
}

// TestDriftReplayDeterministic: a drifting surfer replays bit for bit —
// same seeds, same trajectory, same phase boundaries, same distributions.
func TestDriftReplayDeterministic(t *testing.T) {
	a := driftSite(t, 11, 17)
	b := driftSite(t, 11, 17)
	for i := 0; i < 200; i++ {
		da, db := a.NextDistribution(), b.NextDistribution()
		if len(da) != len(db) {
			t.Fatalf("step %d: distribution supports differ", i)
		}
		for k, v := range da {
			if db[k] != v {
				t.Fatalf("step %d: dist[%d] = %v vs %v", i, k, v, db[k])
			}
		}
		if pa, pb := a.Step(), b.Step(); pa != pb {
			t.Fatalf("step %d: trajectories diverged: %d vs %d", i, pa, pb)
		}
		if a.Phase() != b.Phase() {
			t.Fatalf("step %d: phases diverged: %d vs %d", i, a.Phase(), b.Phase())
		}
	}
	if a.Phase() != 200/17 {
		t.Errorf("Phase() = %d after 200 steps at cadence 17, want %d", a.Phase(), 200/17)
	}
}

// TestDriftOracleExactAcrossPhases: the exposed next-page distribution
// is exactly the distribution the next Step samples from, through every
// phase shift — within a phase it is constant per page, it changes only
// at shift boundaries, and it always sums to 1.
func TestDriftOracleExactAcrossPhases(t *testing.T) {
	const every = 25
	s := driftSite(t, 5, every)
	page := s.Current()
	prevPhase := s.Phase()
	prev := s.NextDistributionFrom(0)
	shifts := 0
	for i := 0; i < 150; i++ {
		d := s.NextDistributionFrom(0)
		var mass float64
		for _, p := range d {
			mass += p
		}
		if mass < 1-1e-9 || mass > 1+1e-9 {
			t.Fatalf("step %d: distribution mass %v", i, mass)
		}
		changed := len(d) != len(prev)
		for k, v := range d {
			if prev[k] != v {
				changed = true
				break
			}
		}
		if s.Phase() == prevPhase && changed {
			t.Fatalf("step %d: distribution moved inside phase %d", i, s.Phase())
		}
		if s.Phase() != prevPhase {
			if !changed {
				// A re-draw can coincidentally fix a page's weight; the
				// whole distribution matching bit-for-bit across a shift
				// would mean the shift did nothing.
				t.Logf("step %d: phase %d shift left page-0 distribution unchanged", i, s.Phase())
			} else {
				shifts++
			}
			prevPhase = s.Phase()
		}
		prev = d
		page = s.Step()
	}
	_ = page
	if shifts == 0 {
		t.Error("no phase shift moved the exposed distribution")
	}
}

// TestDriftStreamsIndependent: the browsing trajectory before the first
// shift does not depend on the drift cadence — drift draws come from
// their own stream, never the browsing stream.
func TestDriftStreamsIndependent(t *testing.T) {
	a := driftSite(t, 9, 50)
	b := driftSite(t, 9, 500)
	for i := 0; i < 50; i++ {
		if pa, pb := a.Step(), b.Step(); pa != pb {
			t.Fatalf("step %d (before any shift): trajectories diverged: %d vs %d", i, pa, pb)
		}
	}
}

// TestDriftMovesHotSet: a phase shift really moves the preference
// vector — the exposed next-page distribution changes across the
// boundary.
func TestDriftMovesHotSet(t *testing.T) {
	s := driftSite(t, 13, 10)
	before := s.NextDistributionFrom(0)
	for i := 0; i < 10; i++ {
		s.Step()
	}
	if s.Phase() != 1 {
		t.Fatalf("Phase() = %d after 10 steps at cadence 10, want 1", s.Phase())
	}
	after := s.NextDistributionFrom(0)
	changed := false
	for k, v := range after {
		if before[k] != v {
			changed = true
			break
		}
	}
	if !changed {
		t.Error("phase shift left the next-page distribution unchanged")
	}
}

// TestEnableDriftRejectsBadCadence: cadence < 1 is always a caller bug.
func TestEnableDriftRejectsBadCadence(t *testing.T) {
	r := rng.New(1)
	site, err := Generate(r, DefaultSiteConfig())
	if err != nil {
		t.Fatal(err)
	}
	s := NewSurfer(r, site, 0.85)
	defer func() {
		if recover() == nil {
			t.Error("EnableDrift(r, 0) did not panic")
		}
	}()
	s.EnableDrift(rng.Derive(1, "drift"), 0)
}

// mapNextDistribution is the map-building surfer arithmetic the dense
// form replaced, kept as the reference the dense values must match bit
// for bit: link mass accumulated into a map, then the teleport sweep.
func mapNextDistribution(s *Surfer, page int) map[int]float64 {
	dist := map[int]float64{}
	links := s.site.Pages[page].Links
	if len(links) > 0 {
		if s.weights == nil {
			per := s.followProb / float64(len(links))
			for _, t := range links {
				dist[t] += per
			}
		} else {
			var wsum float64
			for _, t := range links {
				wsum += s.weights[t]
			}
			for _, t := range links {
				dist[t] += s.followProb * s.weights[t] / wsum
			}
		}
	}
	teleport := 1 - s.followProb
	if len(links) == 0 {
		teleport = 1
	}
	for i := range s.site.Pages {
		w := s.site.Pages[i].Weight
		if s.weights != nil {
			w = s.weights[i]
		}
		if w *= teleport; w > 0 {
			dist[i] += w
		}
	}
	return dist
}

// checkDenseMatchesMap asserts that, from every page, NextDistributionInto
// holds bit for bit the map reference's values (0 off its support) and
// that NextDistributionFrom is exactly the reference map.
func checkDenseMatchesMap(t *testing.T, s *Surfer) {
	t.Helper()
	probs := make([]float64, len(s.site.Pages))
	for page := range s.site.Pages {
		for i := range probs {
			probs[i] = math.NaN() // NextDistributionInto must overwrite
		}
		s.NextDistributionInto(page, probs)
		ref := mapNextDistribution(s, page)
		view := s.NextDistributionFrom(page)
		if len(view) != len(ref) {
			t.Fatalf("page %d: map view has %d entries, reference %d", page, len(view), len(ref))
		}
		for i, p := range probs {
			if math.Float64bits(p) != math.Float64bits(ref[i]) {
				t.Fatalf("page %d: dense[%d] = %v (%#x), map reference %v (%#x)",
					page, i, p, math.Float64bits(p), ref[i], math.Float64bits(ref[i]))
			}
			if v, ok := view[i]; ok != (p > 0) || math.Float64bits(v) != math.Float64bits(ref[i]) {
				t.Fatalf("page %d: map view[%d] = %v (present %v), reference %v", page, i, v, ok, ref[i])
			}
		}
	}
}

// TestNextDistributionIntoBitIdentical: the dense surfer distribution is
// bit for bit the map arithmetic it replaced, stationary and through
// drift phase shifts, and a stationary surfer agrees bit for bit with
// the site-level Site.NextDistributionInto.
func TestNextDistributionIntoBitIdentical(t *testing.T) {
	t.Run("stationary", func(t *testing.T) {
		site := mustSite(t, 3)
		s := NewSurfer(rng.New(4), site, 0.85)
		checkDenseMatchesMap(t, s)
		got := make([]float64, len(site.Pages))
		want := make([]float64, len(site.Pages))
		for page := range site.Pages {
			s.NextDistributionInto(page, got)
			site.NextDistributionInto(page, 0.85, want)
			for i := range got {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("page %d: surfer[%d] = %v, site %v", page, i, got[i], want[i])
				}
			}
		}
	})
	t.Run("drift", func(t *testing.T) {
		s := driftSite(t, 7, 10)
		for step := 0; step < 60; step++ {
			checkDenseMatchesMap(t, s)
			s.Step()
		}
		if s.Phase() != 6 {
			t.Fatalf("Phase() = %d after 60 steps at cadence 10, want 6", s.Phase())
		}
	})
}
