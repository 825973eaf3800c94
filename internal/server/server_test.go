package server

import (
	"math"
	"testing"

	"delaycalc/internal/minplus"
)

// ServiceLine returns the raw service curve of the transmission line:
// Capacity * t, delayed by the fixed latency.
func (s Server) ServiceLine() minplus.Curve {
	return minplus.Delay(minplus.Rate(s.Capacity), s.Latency)
}

func TestDisciplineString(t *testing.T) {
	cases := map[Discipline]string{
		FIFO:           "FIFO",
		StaticPriority: "StaticPriority",
		GuaranteedRate: "GuaranteedRate",
		EDF:            "EDF",
		Discipline(9):  "Discipline(9)",
	}
	for d, want := range cases {
		if got := d.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(d), got, want)
		}
	}
}

func TestDisciplineValid(t *testing.T) {
	for _, d := range []Discipline{FIFO, StaticPriority, GuaranteedRate, EDF} {
		if !d.Valid() {
			t.Errorf("%v should be valid", d)
		}
	}
	if Discipline(-1).Valid() || Discipline(99).Valid() {
		t.Error("out-of-range disciplines should be invalid")
	}
}

func TestServerValidate(t *testing.T) {
	ok := Server{Name: "s", Capacity: 1, Discipline: FIFO}
	if err := ok.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Server{
		{Capacity: 0},
		{Capacity: -1},
		{Capacity: 1, Latency: -1},
		{Capacity: 1, Discipline: Discipline(42)},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestServiceLine(t *testing.T) {
	s := Server{Capacity: 2, Discipline: FIFO}
	line := s.ServiceLine()
	if got := line.Eval(3); math.Abs(got-6) > 1e-12 {
		t.Errorf("service line at 3 = %g, want 6", got)
	}
	lat := Server{Capacity: 2, Discipline: FIFO, Latency: 1}
	dl := lat.ServiceLine()
	if got := dl.Eval(1); got != 0 {
		t.Errorf("latency service line at 1 = %g, want 0", got)
	}
	if got := dl.Eval(2); math.Abs(got-2) > 1e-12 {
		t.Errorf("latency service line at 2 = %g, want 2", got)
	}
}
