package btsim

import (
	"math/bits"
	"testing"
)

// auditObserver runs the full invariant audit after every sampled round and
// tracks the largest share of present peers the tracker's saturation
// bitmap marks full.
type auditObserver struct {
	t       *testing.T
	s       *Swarm
	maxFull float64
}

func (o *auditObserver) OnSample(pt SeriesPoint) {
	if err := o.s.CheckInvariants(); err != nil {
		o.t.Fatalf("round %d: %v", pt.Round, err)
	}
	full := 0
	for _, w := range o.s.trk.full {
		full += bits.OnesCount64(w)
	}
	if n := len(o.s.trk.present); n > 0 {
		o.maxFull = max(o.maxFull, float64(full)/float64(n))
	}
}

func (o *auditObserver) OnEvent(RunEvent) {}
func (o *auditObserver) OnDone(Metrics)   {}

// TestFlashcrowd1mInvariantsEveryRound audits the fault-free million-peer
// flash crowd, scaled down, after every round. The scenario runner only
// runs the watchdog under fault injection, so without this test the burst
// rounds — where most of the swarm sits at the degree cap and the handout
// rejects most draws on the saturation bitmap — are never audited.
func TestFlashcrowd1mInvariantsEveryRound(t *testing.T) {
	sp, err := NamedSpec("flashcrowd1m", 3, 0.002)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := sp.Compile()
	if err != nil {
		t.Fatal(err)
	}
	run, err := sc.freshRun()
	if err != nil {
		t.Fatal(err)
	}
	if run.s.flt != nil {
		t.Fatal("flashcrowd1m armed the fault layer; the audit must cover the fault-free path")
	}
	obs := &auditObserver{t: t, s: run.s}
	if err := run.loop(obs); err != nil {
		t.Fatal(err)
	}
	if obs.maxFull < 0.5 {
		t.Fatalf("at most %.2f of present peers were saturated; the burst should saturate most of them", obs.maxFull)
	}
}
