package experiments

import (
	"fmt"
	"io"

	"mapsynth/internal/pipeline"
)

// SensitivityPoint is one parameter setting's outcome.
type SensitivityPoint struct {
	Param    string
	Value    float64
	AvgF     float64
	Mappings int
}

// Sensitivity reproduces Section 5.4: sweeps of θ (approximate-FD
// threshold), τ (negative hard-constraint threshold), θoverlap (blocking)
// and θedge (positive-edge filter), reporting average F and the number of
// synthesized mappings for each setting. The paper's findings to compare
// against: θ barely changes the outcome within [0.93, 0.97]; quality is
// insensitive to small |τ| and peaks around −0.05; θoverlap is an
// efficiency knob with stable quality; θedge has a quality sweet spot.
func Sensitivity(w io.Writer, env *Env) []SensitivityPoint {
	var points []SensitivityPoint
	run := func(param string, value float64, mutate func(*pipeline.Config)) {
		cfg := pipeline.DefaultConfig()
		mutate(&cfg)
		r, res := env.RunSynthesis(cfg)
		points = append(points, SensitivityPoint{
			Param: param, Value: value, AvgF: r.Avg.F, Mappings: len(res.Mappings),
		})
	}
	for _, th := range []float64{0.93, 0.94, 0.95, 0.96, 0.97} {
		th := th
		run("theta", th, func(c *pipeline.Config) { c.Extract.ThetaFD = th })
	}
	for _, tau := range []float64{0, -0.05, -0.1, -0.2, -0.4, -0.8} {
		tau := tau
		run("tau", tau, func(c *pipeline.Config) { c.Tau = tau })
	}
	for _, ov := range []float64{1, 2, 3, 4} {
		ov := ov
		run("theta_overlap", ov, func(c *pipeline.Config) { c.Compat.ThetaOverlap = int(ov) })
	}
	for _, te := range []float64{0.1, 0.2, 0.3, 0.5, 0.7, 0.85} {
		te := te
		run("theta_edge", te, func(c *pipeline.Config) { c.Compat.ThetaEdge = te })
	}
	rows := [][]string{{"param", "value", "avg-F", "#mappings"}}
	for _, p := range points {
		rows = append(rows, []string{
			p.Param,
			fmt.Sprintf("%.2f", p.Value),
			fmt.Sprintf("%.3f", p.AvgF),
			fmt.Sprintf("%d", p.Mappings),
		})
	}
	printTable(w, "== Section 5.4: sensitivity analysis ==", rows)
	return points
}
