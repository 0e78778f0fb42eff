package capybara_test

import (
	"testing"

	"react/internal/capybara"
	"react/internal/simtest"
)

func BenchmarkCapybaraCycle(b *testing.B) {
	cycle := simtest.Cycle(capybara.New(capybara.DefaultConfig()))
	for b.Loop() {
		cycle()
	}
}

func TestCapybaraCycleAllocs(t *testing.T) {
	buf := capybara.New(capybara.DefaultConfig())
	if n := testing.AllocsPerRun(100, simtest.Cycle(buf)); n != 0 {
		t.Errorf("Capybara executor-order cycle: %v allocs/op, want 0", n)
	}
	if top := len(buf.Traits().Guarantee) - 1; buf.Level() != top {
		t.Errorf("primed Capybara sits at level %d, want the largest, %d", buf.Level(), top)
	}
}
