// Package forecast implements the day-ahead load prediction that the
// paper's operational discussion presumes: "in a scenario where the
// operators can predict load accurately day to day, they can actually
// change the GV to the optimal value each day" (Section V-C).
//
// The predictor is a per-slot diurnal profile learner: utilization at
// each time-of-day slot is an exponentially weighted average over the
// corresponding slots of past days, scaled by a one-day-ahead peak
// estimate. It is deliberately simple — the point is to close the loop
// (history → forecast → GV choice), not to compete with production
// forecasters.
package forecast

import (
	"fmt"
	"time"

	"vmt/internal/stats"
)

// Forecaster learns a diurnal profile from observed utilization.
type Forecaster struct {
	slotDur time.Duration
	slots   int
	// profile[i] is the EWMA of utilization in slot i, normalized by
	// each day's peak; peakEWMA tracks the daily peak level.
	profile  []float64
	seen     []bool
	peakEWMA float64
	peakSeen bool
	alpha    float64
	days     int
}

// New returns a forecaster with the given slot duration (must divide
// 24h evenly) and smoothing factor alpha in (0,1]; larger alpha
// weights recent days more.
func New(slotDur time.Duration, alpha float64) (*Forecaster, error) {
	if slotDur <= 0 || (24*time.Hour)%slotDur != 0 {
		return nil, fmt.Errorf("forecast: slot duration %v must divide 24h", slotDur)
	}
	if alpha <= 0 || alpha > 1 {
		return nil, fmt.Errorf("forecast: alpha %v out of (0,1]", alpha)
	}
	slots := int((24 * time.Hour) / slotDur)
	return &Forecaster{
		slotDur: slotDur,
		slots:   slots,
		profile: make([]float64, slots),
		seen:    make([]bool, slots),
		alpha:   alpha,
	}, nil
}

// ObserveDay feeds one day of utilization samples (length must equal
// the slot count) into the learner.
func (f *Forecaster) ObserveDay(day []float64) error {
	if len(day) != f.slots {
		return fmt.Errorf("forecast: day has %d samples, want %d", len(day), f.slots)
	}
	peak, err := stats.Max(day)
	if err != nil {
		return err
	}
	if peak <= 0 {
		return fmt.Errorf("forecast: day has no load")
	}
	for i, v := range day {
		if v < 0 {
			return fmt.Errorf("forecast: negative utilization %v at slot %d", v, i)
		}
		norm := v / peak
		if !f.seen[i] {
			f.profile[i] = norm
			f.seen[i] = true
		} else {
			f.profile[i] = (1-f.alpha)*f.profile[i] + f.alpha*norm
		}
	}
	if !f.peakSeen {
		f.peakEWMA = peak
		f.peakSeen = true
	} else {
		f.peakEWMA = (1-f.alpha)*f.peakEWMA + f.alpha*peak
	}
	f.days++
	return nil
}

// PredictDay returns the next day's utilization forecast, one value
// per slot, clamped to [0,1]. It fails until at least one day has been
// observed.
func (f *Forecaster) PredictDay() ([]float64, error) {
	if f.days == 0 {
		return nil, fmt.Errorf("forecast: no history")
	}
	out := make([]float64, f.slots)
	for i := range out {
		out[i] = stats.Clamp(f.profile[i]*f.peakEWMA, 0, 1)
	}
	return out, nil
}

// MAE returns the mean absolute error of a forecast against the
// realized day.
func MAE(forecast, actual []float64) (float64, error) {
	if len(forecast) != len(actual) || len(forecast) == 0 {
		return 0, fmt.Errorf("forecast: need matching non-empty series")
	}
	var sum float64
	for i := range forecast {
		d := forecast[i] - actual[i]
		if d < 0 {
			d = -d
		}
		sum += d
	}
	return sum / float64(len(forecast)), nil
}
