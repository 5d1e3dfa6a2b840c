package bench

import (
	"fmt"

	"qasom/internal/baseline"
	"qasom/internal/core"
	"qasom/internal/qos"
	"qasom/internal/registry"
	"qasom/internal/task"
	"qasom/internal/workload"
)

// instance bundles one generated selection problem.
type instance struct {
	req   *core.Request
	cands map[string][]registry.Candidate
	tk    *task.Task
}

// genInstance builds a selection problem: a task of n activities,
// services per activity with normal-law QoS, c global constraints at the
// given tightness.
func genInstance(seed int64, n, services, c int, ps *qos.PropertySet,
	shape workload.TaskShape, tight workload.Tightness, approach qos.Approach) *instance {
	g := workload.NewGenerator(seed)
	laws := workload.DefaultLaws(ps)
	tk := g.Task("T", n, shape)
	cands := g.Candidates(tk, services, ps, laws)
	req := &core.Request{
		Task:        tk,
		Properties:  ps,
		Constraints: g.Constraints(tk, ps, laws, tight, c),
		Approach:    approach,
	}
	return &instance{req: req, cands: cands, tk: tk}
}

// runQASSA executes one selection and returns the result plus split
// phase times.
func runQASSA(inst *instance, opts core.Options) (*core.Result, error) {
	return core.NewSelector(opts).Select(inst.req, inst.cands)
}

// optimalityPoint runs QASSA and the exhaustive optimum on the same
// instance and returns utility ratio in percent plus feasibility info.
func optimalityPoint(inst *instance, opts core.Options) (ratio float64, qassaFeasible, optFeasible bool, err error) {
	opt, err := baseline.Exhaustive(inst.req, inst.cands, baseline.ExhaustiveOptions{})
	if err != nil {
		return 0, false, false, err
	}
	heur, err := runQASSA(inst, opts)
	if err != nil {
		return 0, false, false, err
	}
	if !opt.Feasible {
		return 100, heur.Feasible, false, nil
	}
	if opt.Utility <= 0 {
		return 100, heur.Feasible, true, nil
	}
	return 100 * heur.Utility / opt.Utility, heur.Feasible, true, nil
}

// meanOptimality averages optimality over several seeds.
func meanOptimality(cfg Config, n, services, c int, ps *qos.PropertySet,
	shape workload.TaskShape, tight workload.Tightness, approach qos.Approach,
	opts core.Options) (ratio float64, feasRate float64, err error) {
	seeds := pick(cfg, 3, 8)
	sum, feas, counted := 0.0, 0, 0
	for s := 0; s < seeds; s++ {
		inst := genInstance(cfg.Seed+int64(s), n, services, c, ps, shape, tight, approach)
		r, qf, of, err := optimalityPoint(inst, opts)
		if err != nil {
			return 0, 0, err
		}
		if !of {
			continue // infeasible instance: optimality undefined
		}
		counted++
		sum += r
		if qf {
			feas++
		}
	}
	if counted == 0 {
		return 100, 1, nil
	}
	return sum / float64(counted), float64(feas) / float64(counted), nil
}

func selectionExperiments() []*Experiment {
	return []*Experiment{
		expVI5a(), expVI5b(), expVI6a(), expVI6b(), expVI9(), expVI10(), expVI11(),
	}
}

func expVI5a() *Experiment {
	return &Experiment{
		ID:    "vi5a",
		Paper: "Fig. VI.5(a)",
		Title: "QASSA execution time vs services per activity",
		Expected: "Execution time grows roughly linearly in the number of " +
			"services per activity and stays in the milliseconds-to-tens-of-" +
			"milliseconds regime (the thesis reports on-the-fly viability).",
		Run: func(cfg Config) (*Table, error) {
			cfg = cfg.withDefaults()
			ps := qos.StandardSet()
			sweep := pick(cfg, []int{10, 25, 50}, []int{10, 25, 50, 100, 200, 300})
			t := NewTable("QASSA time vs services/activity (n=10 activities, c=3)",
				"services", "local_ms", "global_ms", "total_ms", "feasible")
			for _, services := range sweep {
				inst := genInstance(cfg.Seed, 10, services, 3, ps, workload.ShapeMixed,
					workload.AtMeanPlusSigma, qos.Pessimistic)
				var last *core.Result
				total, err := medianDuration(cfg.Repetitions, func() error {
					res, err := runQASSA(inst, core.Options{})
					last = res
					return err
				})
				if err != nil {
					return nil, err
				}
				t.AddRow(services, last.Stats.Observed.LocalDuration, last.Stats.Observed.GlobalDuration,
					total, last.Feasible)
			}
			return t, nil
		},
	}
}

func expVI5b() *Experiment {
	return &Experiment{
		ID:    "vi5b",
		Paper: "Fig. VI.5(b)",
		Title: "QASSA execution time vs number of global QoS constraints",
		Expected: "Execution time grows mildly with the constraint count " +
			"(each constraint adds one clustering dimension and more repair work).",
		Run: func(cfg Config) (*Table, error) {
			cfg = cfg.withDefaults()
			ps := qos.ExtendedSet()
			sweep := pick(cfg, []int{1, 3, 5}, []int{1, 2, 3, 4, 5, 6, 7, 8})
			t := NewTable("QASSA time vs constraints (n=10 activities, 50 services/activity)",
				"constraints", "total_ms", "feasible")
			for _, c := range sweep {
				inst := genInstance(cfg.Seed, 10, 50, c, ps, workload.ShapeMixed,
					workload.AtMeanPlusSigma, qos.Pessimistic)
				var last *core.Result
				total, err := medianDuration(cfg.Repetitions, func() error {
					res, err := runQASSA(inst, core.Options{})
					last = res
					return err
				})
				if err != nil {
					return nil, err
				}
				t.AddRow(c, total, last.Feasible)
			}
			return t, nil
		},
	}
}

func expVI6a() *Experiment {
	return &Experiment{
		ID:    "vi6a",
		Paper: "Fig. VI.6(a)",
		Title: "Optimality vs services per activity (QASSA vs exhaustive)",
		Expected: "Optimality (utility relative to the exhaustive optimum) " +
			"stays above ~90% across the sweep.",
		Run: func(cfg Config) (*Table, error) {
			cfg = cfg.withDefaults()
			ps := qos.StandardSet()
			sweep := pick(cfg, []int{5, 10}, []int{5, 10, 15, 20})
			t := NewTable("Optimality vs services/activity (n=5 activities, c=3)",
				"services", "optimality_pct", "feasible_rate")
			for _, services := range sweep {
				ratio, feas, err := meanOptimality(cfg, 5, services, 3, ps,
					workload.ShapeMixed, workload.AtMeanPlusSigma, qos.Pessimistic, core.Options{})
				if err != nil {
					return nil, err
				}
				t.AddRow(services, ratio, feas)
			}
			return t, nil
		},
	}
}

func expVI6b() *Experiment {
	return &Experiment{
		ID:    "vi6b",
		Paper: "Fig. VI.6(b)",
		Title: "Optimality vs number of constraints (QASSA vs exhaustive)",
		Expected: "Optimality stays high; tight many-constraint settings " +
			"cost a few points as the feasible region shrinks.",
		Run: func(cfg Config) (*Table, error) {
			cfg = cfg.withDefaults()
			ps := qos.ExtendedSet()
			sweep := pick(cfg, []int{1, 3}, []int{1, 2, 3, 4, 5, 6, 7, 8})
			t := NewTable("Optimality vs constraints (n=5 activities, 10 services/activity)",
				"constraints", "optimality_pct", "feasible_rate")
			for _, c := range sweep {
				ratio, feas, err := meanOptimality(cfg, 5, 10, c, ps,
					workload.ShapeMixed, workload.AtMeanPlusSigma, qos.Pessimistic, core.Options{})
				if err != nil {
					return nil, err
				}
				t.AddRow(c, ratio, feas)
			}
			return t, nil
		},
	}
}

func expVI9() *Experiment {
	return &Experiment{
		ID:    "vi9",
		Paper: "Fig. VI.9",
		Title: "Normal distribution law of generated QoS values",
		Expected: "The empirical density of generated QoS values tracks the " +
			"N(50,15) probability density function.",
		Run: func(cfg Config) (*Table, error) {
			cfg = cfg.withDefaults()
			g := workload.NewGenerator(cfg.Seed)
			law := workload.Law{Mean: 50, Std: 15, Min: 0.001}
			samples := pick(cfg, 5000, 50000)
			values := make([]float64, samples)
			for i := range values {
				values[i] = law.Sample(g.Rand())
			}
			h, err := workload.NewHistogram(values, 20)
			if err != nil {
				return nil, err
			}
			t := NewTable(fmt.Sprintf("QoS value distribution (%d samples, N(50,15))", samples),
				"bin_center", "empirical_density", "normal_pdf")
			for i := range h.Counts {
				c := h.BinCenter(i)
				t.AddRow(c, h.Density(i), workload.NormalPDF(50, 15, c))
			}
			return t, nil
		},
	}
}

func expVI10() *Experiment {
	return &Experiment{
		ID:    "vi10",
		Paper: "Fig. VI.10(a,b)",
		Title: "Execution time with global constraints fixed at m vs m+sigma",
		Expected: "Tight constraints (bounds at m) cost more time than " +
			"relaxed ones (m+sigma): more levels explored, more repair swaps.",
		Run: func(cfg Config) (*Table, error) {
			cfg = cfg.withDefaults()
			ps := qos.StandardSet()
			sweep := pick(cfg, []int{10, 50}, []int{10, 25, 50, 100, 200})
			t := NewTable("QASSA time vs constraint tightness (n=10 activities, c=3)",
				"tightness", "services", "total_ms", "levels", "repair_swaps", "feasible")
			for _, tight := range []workload.Tightness{workload.AtMean, workload.AtMeanPlusSigma} {
				for _, services := range sweep {
					inst := genInstance(cfg.Seed, 10, services, 3, ps, workload.ShapeMixed,
						tight, qos.Pessimistic)
					var last *core.Result
					total, err := medianDuration(cfg.Repetitions, func() error {
						res, err := runQASSA(inst, core.Options{})
						last = res
						return err
					})
					if err != nil {
						return nil, err
					}
					t.AddRow(tight.String(), services, total, last.Stats.LevelsExplored,
						last.Stats.RepairSwaps, last.Feasible)
				}
			}
			return t, nil
		},
	}
}

func expVI11() *Experiment {
	return &Experiment{
		ID:    "vi11",
		Paper: "Fig. VI.11(a,b)",
		Title: "Optimality with global constraints fixed at m vs m+sigma",
		Expected: "Optimality degrades slightly under tight constraints " +
			"(m) compared with relaxed ones (m+sigma).",
		Run: func(cfg Config) (*Table, error) {
			cfg = cfg.withDefaults()
			ps := qos.StandardSet()
			sweep := pick(cfg, []int{5, 10}, []int{5, 10, 15, 20})
			t := NewTable("Optimality vs constraint tightness (n=5 activities, c=3)",
				"tightness", "services", "optimality_pct", "feasible_rate")
			for _, tight := range []workload.Tightness{workload.AtMean, workload.AtMeanPlusSigma} {
				for _, services := range sweep {
					ratio, feas, err := meanOptimality(cfg, 5, services, 3, ps,
						workload.ShapeMixed, tight, qos.Pessimistic, core.Options{})
					if err != nil {
						return nil, err
					}
					t.AddRow(tight.String(), services, ratio, feas)
				}
			}
			return t, nil
		},
	}
}
