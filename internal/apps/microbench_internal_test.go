package apps

import (
	"math"
	"reflect"
	"testing"
)

// scripted returns a trial func that replays scores in call order and
// records which side each call timed.
func scripted(scores []float64, sides *[]bool) func(bool) (float64, error) {
	return func(recording bool) (float64, error) {
		*sides = append(*sides, recording)
		return scores[len(*sides)-1], nil
	}
}

// TestPairedOverheadAlternates: pairs are adjacent and alternate which
// side runs first.
func TestPairedOverheadAlternates(t *testing.T) {
	var sides []bool
	scores := []float64{100, 100, 100, 100, 100, 100, 100, 100, 100, 100}
	if _, _, _, err := pairedOverhead(5, scripted(scores, &sides)); err != nil {
		t.Fatal(err)
	}
	want := []bool{true, false, false, true, true, false, false, true, true, false}
	if !reflect.DeepEqual(sides, want) {
		t.Errorf("trial order %v, want %v", sides, want)
	}
}

// TestPairedOverheadSurvivesBurst feeds two equally fast sides with one
// load burst that slows one trial, or two consecutive trials, to 30%
// speed (calls 3 and 4 straddle pairs 1 and 2 and are both flux trials),
// and with a steady drift. The burst skews only the pairs it lands on,
// so the median of the per-pair ratios stays at 1.
func TestPairedOverheadSurvivesBurst(t *testing.T) {
	for name, scores := range map[string][]float64{
		"one trial":  {100, 100, 100, 100, 30, 100, 100, 100, 100, 100},
		"two trials": {100, 100, 100, 30, 30, 100, 100, 100, 100, 100},
		"drift":      {100, 99, 98, 97, 96, 95, 94, 93, 92, 91},
	} {
		var sides []bool
		flux, aosp, ratio, err := pairedOverhead(5, scripted(scores, &sides))
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(ratio-1) > 0.02 {
			t.Errorf("%s: ratio %.3f, want 1 ± 0.02 (flux %.1f, aosp %.1f)", name, ratio, flux, aosp)
		}
	}
}

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		in := append([]float64(nil), tc.in...)
		if got := median(tc.in); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", in, got, tc.want)
		}
		if !reflect.DeepEqual(in, tc.in) {
			t.Errorf("median reordered its input: %v", tc.in)
		}
	}
}
