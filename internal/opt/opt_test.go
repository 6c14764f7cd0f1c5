package opt

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"rushprobe/internal/dist"
	"rushprobe/internal/model"
)

// roadside returns the paper's §VII.A scenario as an opt problem:
// 24 hourly slots, rush hours 7-9 and 17-19 with Tinterval=300s,
// otherwise 1800s, Tcontact fixed at 2s.
func roadside(phiMax, zetaTarget float64) Problem {
	slots := make([]model.SlotProcess, 24)
	for i := range slots {
		freq := 1.0 / 1800
		if (i >= 7 && i < 9) || (i >= 17 && i < 19) {
			freq = 1.0 / 300
		}
		slots[i] = model.SlotProcess{
			Duration: 3600,
			Freq:     freq,
			Length:   dist.Fixed{Value: 2},
		}
	}
	return Problem{
		Model:      model.DefaultConfig(),
		Slots:      slots,
		PhiMax:     phiMax,
		ZetaTarget: zetaTarget,
	}
}

func TestSolveTightBudgetIsBudgetBound(t *testing.T) {
	// Fig 5 regime: PhiMax = Tepoch/1000 = 86.4s. Optimal zeta = 28.8s
	// (all budget into rush-hour slots at the knee efficiency 1/3).
	p := roadside(86.4, 56)
	plan, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if plan.TargetMet {
		t.Error("target 56s cannot be met under 86.4s budget")
	}
	if !plan.BudgetBound {
		t.Error("plan should exhaust the budget")
	}
	if math.Abs(plan.Zeta-28.8) > 0.05 {
		t.Errorf("zeta = %v, want ~28.8", plan.Zeta)
	}
	if math.Abs(plan.Phi-86.4) > 0.01 {
		t.Errorf("phi = %v, want 86.4", plan.Phi)
	}
	if math.Abs(plan.Rho()-3.0) > 0.01 {
		t.Errorf("rho = %v, want ~3", plan.Rho())
	}
	// All spend must be in rush-hour slots.
	for i, d := range plan.Duty {
		rush := (i >= 7 && i < 9) || (i >= 17 && i < 19)
		if !rush && d > 1e-9 {
			t.Errorf("slot %d (non-rush) has duty %v, want 0", i, d)
		}
	}
}

func TestSolveMeetsTargetMinimally(t *testing.T) {
	// Fig 6 regime: PhiMax = 864s, target 24s. Minimal energy is
	// 24 * rho_rush = 72s, all inside rush hours.
	p := roadside(864, 24)
	plan, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if !plan.TargetMet {
		t.Fatalf("target should be met; plan zeta = %v", plan.Zeta)
	}
	if math.Abs(plan.Zeta-24) > 0.05 {
		t.Errorf("zeta = %v, want 24 (no overshoot)", plan.Zeta)
	}
	if math.Abs(plan.Phi-72) > 0.2 {
		t.Errorf("phi = %v, want ~72", plan.Phi)
	}
}

func TestSolvePushesPastKneeForHighTargets(t *testing.T) {
	// Fig 6 at zetaTarget=56: rush-hour capacity at the knee is only 48s.
	// The optimum raises rush-hour duty past the knee (marginal efficiency
	// there still beats other slots' 1/18) for a total Phi of 172.8s.
	p := roadside(864, 56)
	plan, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if !plan.TargetMet {
		t.Fatalf("target 56 should be met under 864s budget; zeta = %v", plan.Zeta)
	}
	if math.Abs(plan.Zeta-56) > 0.1 {
		t.Errorf("zeta = %v, want 56", plan.Zeta)
	}
	if math.Abs(plan.Phi-172.8) > 1.0 {
		t.Errorf("phi = %v, want ~172.8 (all-in rush hours past the knee)", plan.Phi)
	}
	for i, d := range plan.Duty {
		rush := (i >= 7 && i < 9) || (i >= 17 && i < 19)
		if rush && d <= 0.01 {
			t.Errorf("rush slot %d duty = %v, want > knee 0.01", i, d)
		}
		if !rush && d > 1e-9 {
			t.Errorf("non-rush slot %d duty = %v, want 0", i, d)
		}
	}
}

func TestSolveSpillsToOffPeakWhenRushSaturated(t *testing.T) {
	// Force rush slots to their duty cap so the optimizer must use
	// off-peak slots to reach the target.
	p := roadside(10000, 56)
	p.MaxDuty = 0.01 // exactly the knee: rush capacity tops out at 48s
	plan, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if !plan.TargetMet {
		t.Fatalf("target should be met via off-peak spill; zeta = %v", plan.Zeta)
	}
	offPeak := 0.0
	for i, d := range plan.Duty {
		rush := (i >= 7 && i < 9) || (i >= 17 && i < 19)
		if !rush {
			offPeak += d * 3600
		}
	}
	// Needs 8 extra seconds of capacity at off-peak efficiency 1/18.
	if math.Abs(offPeak-144) > 2 {
		t.Errorf("off-peak energy = %v, want ~144", offPeak)
	}
}

func TestSolveZeroTarget(t *testing.T) {
	p := roadside(86.4, 0)
	plan, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if !plan.TargetMet {
		t.Error("zero target is always met")
	}
	if plan.Phi > tol {
		t.Errorf("zero target should spend nothing, got phi = %v", plan.Phi)
	}
}

func TestSolveZeroBudget(t *testing.T) {
	p := roadside(0, 24)
	plan, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if plan.TargetMet {
		t.Error("cannot meet positive target with zero budget")
	}
	if plan.Zeta != 0 || plan.Phi != 0 {
		t.Errorf("zero budget should produce empty plan, got zeta=%v phi=%v", plan.Zeta, plan.Phi)
	}
}

func TestSolveValidation(t *testing.T) {
	base := roadside(86.4, 24)
	tests := []struct {
		name   string
		mutate func(*Problem)
	}{
		{name: "no slots", mutate: func(p *Problem) { p.Slots = nil }},
		{name: "bad Ton", mutate: func(p *Problem) { p.Model.Ton = 0 }},
		{name: "bad duration", mutate: func(p *Problem) { p.Slots[0].Duration = 0 }},
		{name: "negative freq", mutate: func(p *Problem) { p.Slots[0].Freq = -1 }},
		{name: "missing length", mutate: func(p *Problem) { p.Slots[3].Length = nil }},
		{name: "negative budget", mutate: func(p *Problem) { p.PhiMax = -1 }},
		{name: "negative target", mutate: func(p *Problem) { p.ZetaTarget = -1 }},
		{name: "bad MaxDuty", mutate: func(p *Problem) { p.MaxDuty = 2 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			p := base
			p.Slots = append([]model.SlotProcess(nil), base.Slots...)
			tt.mutate(&p)
			if _, err := Solve(p); err == nil {
				t.Error("want validation error, got nil")
			}
		})
	}
}

func TestSolveMatchesBruteForce(t *testing.T) {
	cases := []struct {
		name       string
		phiMax     float64
		zetaTarget float64
	}{
		{name: "fig5 low target", phiMax: 86.4, zetaTarget: 16},
		{name: "fig5 high target", phiMax: 86.4, zetaTarget: 48},
		{name: "fig6 mid target", phiMax: 864, zetaTarget: 32},
		{name: "fig6 beyond knee", phiMax: 864, zetaTarget: 56},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			p := roadside(tt.phiMax, tt.zetaTarget)
			exact, err := Solve(p)
			if err != nil {
				t.Fatal(err)
			}
			approx, err := BruteForce(p, 4000)
			if err != nil {
				t.Fatal(err)
			}
			// The greedy oracle is quantized; allow ~1% slack.
			if exact.TargetMet != approx.TargetMet {
				t.Errorf("TargetMet: exact=%v approx=%v", exact.TargetMet, approx.TargetMet)
			}
			if exact.TargetMet {
				// Both meet the target: exact must not cost more energy.
				if exact.Phi > approx.Phi*1.01+0.1 {
					t.Errorf("exact phi %v worse than greedy %v", exact.Phi, approx.Phi)
				}
			} else {
				// Neither meets: exact must not probe less capacity.
				if exact.Zeta < approx.Zeta*0.99-0.1 {
					t.Errorf("exact zeta %v worse than greedy %v", exact.Zeta, approx.Zeta)
				}
			}
		})
	}
}

func TestSolveWithDistributedLengths(t *testing.T) {
	p := roadside(864, 24)
	for i := range p.Slots {
		p.Slots[i].Length = dist.NormalTenth(2)
	}
	plan, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if !plan.TargetMet {
		t.Fatalf("target should be met with normal lengths; zeta = %v", plan.Zeta)
	}
	// Narrow normal is close to fixed: energy within a few percent of 72s.
	if math.Abs(plan.Phi-72) > 5 {
		t.Errorf("phi = %v, want ~72", plan.Phi)
	}
}

func TestSolveUniformScenarioUsesAllSlotsEqually(t *testing.T) {
	// With identical slots there is no rush hour; the optimum spreads
	// energy and every slot gets the same duty.
	slots := make([]model.SlotProcess, 12)
	for i := range slots {
		slots[i] = model.SlotProcess{Duration: 7200, Freq: 1.0 / 600, Length: dist.Fixed{Value: 2}}
	}
	p := Problem{Model: model.DefaultConfig(), Slots: slots, PhiMax: 100, ZetaTarget: 1e9}
	plan, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if plan.TargetMet {
		t.Error("absurd target cannot be met")
	}
	first := plan.Duty[0]
	for i, d := range plan.Duty {
		if math.Abs(d-first) > 1e-6 {
			t.Errorf("slot %d duty %v differs from slot 0 %v", i, d, first)
		}
	}
	if math.Abs(plan.Phi-100) > 0.01 {
		t.Errorf("phi = %v, want all of 100", plan.Phi)
	}
}

func TestPlanRho(t *testing.T) {
	if r := (Plan{Zeta: 0, Phi: 10}).Rho(); !math.IsInf(r, 1) {
		t.Errorf("rho with zero capacity = %v, want +Inf", r)
	}
	if r := (Plan{Zeta: 4, Phi: 12}).Rho(); r != 3 {
		t.Errorf("rho = %v, want 3", r)
	}
}

func TestBruteForceValidation(t *testing.T) {
	p := roadside(86.4, 24)
	if _, err := BruteForce(p, 0); err == nil {
		t.Error("zero steps should error")
	}
}

// The step-1/step-2 split of §V: when the budget allows more than the
// target, step 2 must not spend beyond what the target needs, and when it
// does not, step 1 must spend everything.
func TestTwoStepSemantics(t *testing.T) {
	tight, err := Solve(roadside(86.4, 16))
	if err != nil {
		t.Fatal(err)
	}
	// 16s at rho 3 needs 48s of energy, within the 86.4 budget.
	if !tight.TargetMet {
		t.Fatal("16s target is feasible under 86.4s budget")
	}
	if math.Abs(tight.Phi-48) > 0.2 {
		t.Errorf("phi = %v, want ~48 (minimal)", tight.Phi)
	}
	loose, err := Solve(roadside(86.4, 40))
	if err != nil {
		t.Fatal(err)
	}
	if loose.TargetMet {
		t.Error("40s target infeasible under 86.4s budget")
	}
	if math.Abs(loose.Phi-86.4) > 0.01 {
		t.Errorf("phi = %v, want full budget", loose.Phi)
	}
}

// refSolve is the fixed-count form of the solver: every bisection runs
// its full iteration count and the cap marginal is recomputed per call. It shares the non-bisection
// helpers and curves with Solve, so any difference in output comes from
// the loops.
func refSolve(p Problem, curves []slotCurve) Plan {
	maxPlan := refMaximizeZeta(p, curves)
	if maxPlan.Zeta < p.ZetaTarget-tol {
		return maxPlan
	}
	return refMinimizePhi(p, curves)
}

func refPhiForMarginal(c slotCurve, lambda float64) float64 {
	if c.capTotal == 0 || lambda > c.effLin+tol {
		return 0
	}
	if m := c.marginal(c.phiMax * (1 - 1e-9)); lambda <= m {
		return c.phiMax
	}
	lo, hi := c.phiKnee, c.phiMax
	for i := 0; i < 80; i++ {
		mid := (lo + hi) / 2
		if c.marginal(mid) >= lambda {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

func refMaximizeZeta(p Problem, curves []slotCurve) Plan {
	total := func(lambda float64) float64 {
		s := 0.0
		for _, c := range curves {
			s += refPhiForMarginal(c, lambda)
		}
		return s
	}
	phis := make([]float64, len(curves))
	if total(tol) <= p.PhiMax+tol {
		for i, c := range curves {
			phis[i] = refPhiForMarginal(c, tol)
		}
		return assemble(p, curves, phis, true)
	}
	loL, hiL := 0.0, maxLinearEff(curves)*2+1
	for i := 0; i < 200; i++ {
		mid := (loL + hiL) / 2
		if total(mid) > p.PhiMax {
			loL = mid
		} else {
			hiL = mid
		}
	}
	used := 0.0
	for i, c := range curves {
		phis[i] = refPhiForMarginal(c, hiL)
		used += phis[i]
	}
	distributeSlack(p, curves, phis, p.PhiMax-used, hiL)
	return assemble(p, curves, phis, false)
}

func refMinimizePhi(p Problem, curves []slotCurve) Plan {
	if p.ZetaTarget <= tol {
		return assemble(p, curves, make([]float64, len(curves)), true)
	}
	zetaAt := func(lambda float64) (float64, []float64) {
		phis := make([]float64, len(curves))
		z := 0.0
		for i, c := range curves {
			phis[i] = refPhiForMarginal(c, lambda)
			z += c.zeta(phis[i])
		}
		return z, phis
	}
	loL, hiL := 0.0, maxLinearEff(curves)*2+1
	for i := 0; i < 200; i++ {
		mid := (loL + hiL) / 2
		if z, _ := zetaAt(mid); z >= p.ZetaTarget {
			loL = mid
		} else {
			hiL = mid
		}
	}
	z, phis := zetaAt(loL)
	trimSurplus(curves, phis, z-p.ZetaTarget, loL)
	return assemble(p, curves, phis, true)
}

// exactnessCorpus returns seeded random problems covering fixed and
// normal contact lengths, duty caps below 1 and zero-frequency slots.
func exactnessCorpus(n int) []Problem {
	r := rand.New(rand.NewSource(20110620))
	probs := []Problem{roadside(0, 0)}
	for len(probs) < n {
		normal := len(probs)%4 == 3 // normal curves cost a quadrature grid each
		nSlots := 1 + r.Intn(24)
		if normal {
			nSlots = 1 + r.Intn(6)
		}
		slots := make([]model.SlotProcess, nSlots)
		for i := range slots {
			slots[i].Duration = 600 + 7200*r.Float64()
			if r.Float64() < 0.2 {
				continue // zero-frequency slot
			}
			slots[i].Freq = 1 / (100 + 3000*r.Float64())
			mean := 0.5 + 5*r.Float64()
			if normal {
				slots[i].Length = dist.NormalTenth(mean)
			} else {
				slots[i].Length = dist.Fixed{Value: mean}
			}
		}
		p := Problem{Model: model.DefaultConfig(), Slots: slots}
		if r.Float64() < 0.4 {
			p.MaxDuty = 0.002 + 0.5*r.Float64()
		}
		probs = append(probs, p)
	}
	return probs
}

// TestSolveMatchesFixedCountReference is the proof that stopping the
// bisections at their fixed point is exact: over budgets from 0 to past
// saturation and targets from 0 to infeasible, Solve must return the
// very bits the fixed-count reference returns.
func TestSolveMatchesFixedCountReference(t *testing.T) {
	n := 12
	if testing.Short() {
		n = 4
	}
	budgetFracs := []float64{0, 1e-4, 0.003, 0.05, 0.3, 0.999, 1.5}
	targetFracs := []float64{0, 0.01, 0.2, 0.6, 0.95, 1.2}
	// Plans by the path that made them: step 2, step 1's lambda
	// bisection, and step 1 with budget to spare.
	var met, bound, saturated int
	for pi, p := range exactnessCorpus(n) {
		saturation, capacity := 0.0, 0.0
		for _, s := range p.Slots {
			saturation += s.Duration * p.maxDuty()
			if s.Freq > 0 {
				capacity += s.Capacity()
			}
		}
		s, err := NewSolver(p)
		if err != nil {
			t.Fatalf("problem %d: %v", pi, err)
		}
		for _, bf := range budgetFracs {
			for _, tf := range targetFracs {
				q := p
				q.PhiMax, q.ZetaTarget = bf*saturation, tf*capacity
				got, err := s.Solve(q.PhiMax, q.ZetaTarget)
				if err != nil {
					t.Fatalf("problem %d: %v", pi, err)
				}
				want := refSolve(q, s.curves)
				if d := planBitsDiff(got, want); d != "" {
					t.Fatalf("problem %d (%d slots, MaxDuty %g) budget %g target %g: %s",
						pi, len(p.Slots), p.MaxDuty, q.PhiMax, q.ZetaTarget, d)
				}
				switch {
				case got.TargetMet:
					met++
				case got.BudgetBound:
					bound++
				default:
					saturated++
				}
			}
		}
	}
	if met == 0 || bound == 0 || saturated == 0 {
		t.Errorf("corpus exercises met=%d bound=%d saturated=%d plans; want every kind", met, bound, saturated)
	}
}

func planBitsDiff(got, want Plan) string {
	if len(got.Duty) != len(want.Duty) {
		return fmt.Sprintf("%d duties, want %d", len(got.Duty), len(want.Duty))
	}
	for i := range got.Duty {
		if math.Float64bits(got.Duty[i]) != math.Float64bits(want.Duty[i]) {
			return fmt.Sprintf("Duty[%d] = %v, want %v", i, got.Duty[i], want.Duty[i])
		}
	}
	switch {
	case math.Float64bits(got.Zeta) != math.Float64bits(want.Zeta):
		return fmt.Sprintf("Zeta = %v, want %v", got.Zeta, want.Zeta)
	case math.Float64bits(got.Phi) != math.Float64bits(want.Phi):
		return fmt.Sprintf("Phi = %v, want %v", got.Phi, want.Phi)
	case got.TargetMet != want.TargetMet:
		return fmt.Sprintf("TargetMet = %v, want %v", got.TargetMet, want.TargetMet)
	case got.BudgetBound != want.BudgetBound:
		return fmt.Sprintf("BudgetBound = %v, want %v", got.BudgetBound, want.BudgetBound)
	}
	return ""
}

// Solve allocates a fixed handful of slices per call (16 at this
// writing: the step-1 and step-2 allocations, the trim candidates and
// their sort, two duty vectors), however many bisection steps it takes.
// A per-step allocation in the lambda bisection would cost dozens more.
func TestSolveAllocs(t *testing.T) {
	s, err := NewSolver(roadside(864, 24))
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := s.Solve(864, 24); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 20 {
		t.Errorf("Solve allocates %v times per call, want <= 20", allocs)
	}
}
