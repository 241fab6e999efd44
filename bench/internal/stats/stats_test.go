package stats

import (
	"math"
	"testing"
)

func TestIQRShareMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles(v, n=4) and statistics.median(v) in CPython
	// give (q3-q1)/median = 0.1260162601626014 for these values.
	v := []float64{3.1, 2.9, 3.4, 3.0, 2.8, 3.3, 3.2, 3.05, 2.95, 3.6}
	if got := IQRShare(v); math.Abs(got-0.1260162601626014) > 1e-12 {
		t.Errorf("IQRShare = %v", got)
	}
	if IQRShare([]float64{5}) != 0 || IQRShare(nil) != 0 {
		t.Error("fewer than two values have no spread")
	}
	// statistics.quantiles([4.2, 3.9, 4.6, 4.0], n=4)[0] is 3.925; of
	// three values the first quartile is the smallest.
	if got := Quartile([]float64{4.2, 3.9, 4.6, 4.0}, 1); math.Abs(got-3.925) > 1e-12 {
		t.Errorf("Quartile of four = %v", got)
	}
	if Quartile([]float64{3, 1, 2}, 1) != 1 || Quartile([]float64{7}, 1) != 7 || Quartile(nil, 1) != 0 {
		t.Error("Quartile of three, one and no values")
	}
}

func TestMedianSpreadQuantile(t *testing.T) {
	if Median([]float64{3, 1, 2}) != 2 || Median([]float64{4, 1, 2, 3}) != 2.5 || Median(nil) != 0 {
		t.Error("Median")
	}
	if got := Spread([]float64{9, 10, 12}); math.Abs(got-0.3) > 1e-12 {
		t.Errorf("Spread = %v", got)
	}
	if MeanOfFastest([]float64{9, 1, 2, 3}, 0.75) != 2 || MeanOfFastest([]float64{5, 4}, 0.1) != 4 || MeanOfFastest(nil, 0.5) != 0 {
		t.Error("MeanOfFastest")
	}
	s := []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if QuantileSorted(s, 0.5) != 5 || QuantileSorted(s, 0.99) != 10 || QuantileSorted(s, 0) != 1 || QuantileSorted([]int32(nil), 0.5) != 0 {
		t.Error("QuantileSorted")
	}
}
