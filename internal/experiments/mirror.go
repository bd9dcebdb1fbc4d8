package experiments

import (
	"fmt"

	"t3sim/internal/gemm"
	"t3sim/internal/stats"
	"t3sim/internal/t3core"
	"t3sim/internal/units"
)

// MirrorRow compares the single-GPU mirror simulation (§5.1.1) against the
// explicit N-device simulation for one configuration.
type MirrorRow struct {
	Devices int
	Grid    gemm.Grid
	// Mirror is the mirror run's collective completion; Multi the explicit
	// run's latest device completion.
	Mirror units.Time
	Multi  units.Time
	// Skew is the explicit run's cross-device completion spread.
	Skew     units.Time
	RelError float64
}

// MirrorResult is the methodology validation: it justifies evaluating the
// fused datapath on a single mirrored GPU, as the paper does.
type MirrorResult struct {
	Rows       []MirrorRow
	GeomeanErr float64
}

// MirrorValidation runs mirror-vs-explicit comparisons across device counts.
func MirrorValidation(setup Setup) (*MirrorResult, error) {
	if err := setup.Validate(); err != nil {
		return nil, err
	}
	grid, err := gemm.NewGrid(gemm.Shape{M: 4096, N: 4096, K: 1024, ElemBytes: 2}, gemm.DefaultTiling())
	if err != nil {
		return nil, err
	}
	res := &MirrorResult{}
	var mirrors, multis []float64
	for _, n := range []int{2, 4, 8, 16} {
		opts := t3core.FusedOptions{
			GPU:         setup.GPU,
			Memory:      setup.Memory,
			Link:        setup.Link,
			Tracker:     setup.Tracker,
			Devices:     n,
			Grid:        grid,
			Collective:  t3core.RingReduceScatter,
			Arbitration: t3core.ArbRoundRobin,
			Check:       setup.Check,
		}
		mirror, err := memoFused(setup.Memo, opts)
		if err != nil {
			return nil, err
		}
		opts.ParWorkers = setup.MultiDeviceWorkers
		multi, err := memoFusedMulti(setup.Memo, opts)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, MirrorRow{
			Devices:  n,
			Grid:     grid,
			Mirror:   mirror.CollectiveDone,
			Multi:    multi.Done,
			Skew:     multi.Skew(),
			RelError: stats.RelError(float64(mirror.CollectiveDone), float64(multi.Done)),
		})
		mirrors = append(mirrors, float64(mirror.CollectiveDone))
		multis = append(multis, float64(multi.Done))
	}
	g, err := stats.GeomeanRelError(mirrors, multis)
	if err != nil {
		return nil, err
	}
	res.GeomeanErr = g
	return res, nil
}

// Render formats the validation.
func (r *MirrorResult) Render() string {
	t := &Table{
		Title:  "Mirror-methodology validation (§5.1.1): single-GPU mirror vs explicit N devices",
		Header: []string{"devices", "mirror", "explicit", "device skew", "error"},
	}
	for _, row := range r.Rows {
		t.AddRow(fmt.Sprintf("%d", row.Devices),
			row.Mirror.String(), row.Multi.String(), row.Skew.String(),
			fmt.Sprintf("%.2f%%", 100*row.RelError))
	}
	t.AddFooter("geomean error = %.2f%%; homogeneous devices justify simulating one GPU", 100*r.GeomeanErr)
	return t.String()
}
