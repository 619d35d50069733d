package benchreg

// allocBudgets caps each scenario's heap allocations per simulated event
// (unit "allocs/ev", the "<scenario>/allocs_per_event" metrics). Each cap
// is the scenario's value in the trajectory snapshot
// bench/trajectory/BENCH_9b751cb080e8.json, taken once NIC firmware and
// host handlers stopped allocating per event, plus 10% and 0.01, rounded
// up to 0.01. Budgets only ratchet down: lower one when a change brings
// its scenario's allocations down, never raise one to let a change
// through. They were taken with benchgate run -quick.
var allocBudgets = Budgets{Loop: RunConfig{Fidelity: "quick", Warmup: 5, Iters: 60}, Caps: map[string]float64{
	"fig5/allocs_per_event":                 0.03,
	"fig6/allocs_per_event":                 0.04,
	"fig7/allocs_per_event":                 0.07,
	"fig8a/allocs_per_event":                0.08,
	"fig8b/allocs_per_event":                0.08,
	"summary/allocs_per_event":              0.08,
	"ablation/allocs_per_event":             0.03,
	"packets/allocs_per_event":              0.2,
	"skew/allocs_per_event":                 2.37,
	"faults/allocs_per_event":               0.04,
	"faults-burst/allocs_per_event":         0.04,
	"faults-jitter/allocs_per_event":        0.04,
	"crash-recovery/allocs_per_event":       0.23,
	"recovery-deadline/allocs_per_event":    0.29,
	"multi-tenant/allocs_per_event":         0.08,
	"multi-tenant-mixed/allocs_per_event":   0.09,
	"group-churn/allocs_per_event":          0.33,
	"reconfigure-cost/allocs_per_event":     0.07,
	"faults-victim-tenant/allocs_per_event": 0.08,
	"multi-tenant-1024/allocs_per_event":    0.61,
	"shard-scale/allocs_per_event":          0.36,
}}
