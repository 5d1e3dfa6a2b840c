package bench

import (
	"time"

	"qasom/internal/core"
	"qasom/internal/qos"
	"qasom/internal/workload"
)

func distributionExperiments() []*Experiment {
	return []*Experiment{expVI12(), expVI12TCP()}
}

func expVI12() *Experiment {
	return &Experiment{
		ID:    "vi12",
		Paper: "Fig. VI.12(a,b)",
		Title: "Distributed QASSA: local and global phase times",
		Expected: "The parallel local phase is flat-ish in the number of " +
			"activities (devices work concurrently) and grows with services " +
			"per device; the global phase matches the centralized global phase.",
		Run: func(cfg Config) (*Table, error) {
			cfg = cfg.withDefaults()
			ps := qos.StandardSet()
			sweep := pick(cfg, []int{10, 50}, []int{10, 25, 50, 100, 200})
			deviceLatency := 2 * time.Millisecond
			t := NewTable("Distributed QASSA phase times (one device per activity, 2ms link, n=10, c=3)",
				"services", "local_ms", "global_ms", "feasible")
			for _, services := range sweep {
				inst := genInstance(cfg.Seed, 10, services, 3, ps, workload.ShapeMixed,
					workload.AtMeanPlusSigma, qos.Pessimistic)
				devices := make(map[string]core.LocalSelector, inst.tk.Size())
				for id, list := range inst.cands {
					dev := core.NewDeviceNode("dev-"+id, deviceLatency)
					dev.Host(id, list)
					devices[id] = dev
				}
				sel := core.NewDistributedSelector(core.Options{}, devices)
				var last *core.Result
				_, err := medianDuration(cfg.Repetitions, func() error {
					res, err := sel.Select(benchCtx(), inst.req)
					last = res
					return err
				})
				if err != nil {
					return nil, err
				}
				t.AddRow(services, last.Stats.Observed.LocalDuration, last.Stats.Observed.GlobalDuration, last.Feasible)
			}
			t.AddNote("local_ms includes the simulated 2ms wireless round trip; devices run in parallel")
			return t, nil
		},
	}
}

func expVI12TCP() *Experiment {
	return &Experiment{
		ID:    "vi12tcp",
		Paper: "Fig. VI.12 (transport variant)",
		Title: "Distributed QASSA over loopback TCP",
		Expected: "Same shape as vi12 with the gob/TCP round-trip added to " +
			"the local phase.",
		Run: func(cfg Config) (*Table, error) {
			cfg = cfg.withDefaults()
			ps := qos.StandardSet()
			sweep := pick(cfg, []int{10}, []int{10, 25, 50, 100})
			t := NewTable("Distributed QASSA over TCP (one endpoint per activity, n=10, c=3)",
				"services", "local_ms", "global_ms", "feasible")
			for _, services := range sweep {
				inst := genInstance(cfg.Seed, 10, services, 3, ps, workload.ShapeMixed,
					workload.AtMeanPlusSigma, qos.Pessimistic)
				devices := make(map[string]core.LocalSelector, inst.tk.Size())
				var stops []func()
				for id, list := range inst.cands {
					dev := core.NewDeviceNode("dev-"+id, 0)
					dev.Host(id, list)
					addr, stop, err := core.ServeTCP(benchCtx(), "127.0.0.1:0", dev)
					if err != nil {
						for _, s := range stops {
							s()
						}
						return nil, err
					}
					stops = append(stops, stop)
					devices[id] = &core.TCPClient{Addr: addr}
				}
				sel := core.NewDistributedSelector(core.Options{}, devices)
				var last *core.Result
				_, err := medianDuration(cfg.Repetitions, func() error {
					res, err := sel.Select(benchCtx(), inst.req)
					last = res
					return err
				})
				for _, s := range stops {
					s()
				}
				if err != nil {
					return nil, err
				}
				t.AddRow(services, last.Stats.Observed.LocalDuration, last.Stats.Observed.GlobalDuration, last.Feasible)
			}
			return t, nil
		},
	}
}
