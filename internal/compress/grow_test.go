package compress

import "testing"

func TestGrowCap(t *testing.T) {
	b := make([]byte, 3, 8)
	copy(b, "abc")
	if got := growCap(b, 5); cap(got) != 8 || len(got) != 3 {
		t.Errorf("no-grow case reallocated: len %d cap %d", len(got), cap(got))
	}
	grown := growCap(b, 100)
	if cap(grown)-len(grown) < 100 || string(grown) != "abc" {
		t.Errorf("grow lost prefix or capacity: %q cap %d", grown, cap(grown))
	}
}

func TestClampGrow(t *testing.T) {
	if got := clampGrow(10, 100); got != 10 {
		t.Errorf("clampGrow(10,100) = %d", got)
	}
	if got := clampGrow(1<<40, 100); got != 100 {
		t.Errorf("clampGrow(huge,100) = %d", got)
	}
	if got := clampGrow(5, -1); got != 0 {
		t.Errorf("clampGrow(5,-1) = %d", got)
	}
}
