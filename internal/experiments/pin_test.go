package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"react/internal/sim"
)

// digest hashes the %+v rendering of v. Floats render at their shortest
// round-trip precision and maps in sorted key order, so equal digests mean
// bit-identical values.
func digest(v any) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%+v", v)))
	return hex.EncodeToString(sum[:])
}

// resultFields renders every sim.Result field as "Name:value " pairs, so
// the digest names each value it pins.
func resultFields(r sim.Result) string {
	var b strings.Builder
	v := reflect.ValueOf(r)
	for i := 0; i < v.NumField(); i++ {
		fmt.Fprintf(&b, "%s:%+v ", v.Type().Field(i).Name, v.Field(i).Interface())
	}
	return b.String()
}

// figure1Digest hashes Figure 1 field by field: each run's label, its
// result through resultFields, and its series.
func figure1Digest(runs []Figure1Run) string {
	h := sha256.New()
	for _, r := range runs {
		fmt.Fprintf(h, "Label:%s %sSamples:%+v\n", r.Label, resultFields(r.Result), r.Samples)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestFigurePins pins the Figure 1, Figure 6, §2.1 background and §5.1
// overhead reproductions bit for bit at the default options. The shape
// tests above only check them within tolerances; these values catch any
// change to how the cells are built or run. Regenerate them only for an
// intentional physics change.
func TestFigurePins(t *testing.T) {
	fig1, err := Figure1(Options{})
	if err != nil {
		t.Fatal(err)
	}
	fig6, err := Figure6(Options{})
	if err != nil {
		t.Fatal(err)
	}
	bg, err := RunBackground(Options{})
	if err != nil {
		t.Fatal(err)
	}
	oh, err := RunOverhead(Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ name, got, want string }{
		{"Figure1", figure1Digest(fig1), "248728e640d76c81e3406b166e3316d6f314cd75eaba3a1f589299386b662be6"},
		{"Figure6", digest(fig6), "f53e9bda7ebb20485830ad317d6ba8244feed2e56a65afc36884b1026e0a3ca8"},
		{"Background", fmt.Sprintf("%+v", bg), "{LatencySmall:18.832 LatencyLarge:573.154 " +
			"CycleSmall:4.684374999999988 CycleLarge:542.2196666666667 " +
			"DutySmall:0.246211714281867 DutyLarge:0.4647588571338419 " +
			"EnergyAbove10mW:0.6843796554680328 TimeBelow3mW:0.8245714285714286 " +
			"NightDuty1mF:0.07321111111125843 NightDuty10mF:0.06517500000010895 " +
			"NightStarted300mF:false}"},
		{"Overhead", fmt.Sprintf("%+v", oh), "{SoftwarePenalty:0.018080667593880384 " +
			"HardwareDrawW:6.721627264869568e-05 PerBankW:1.3443254529739136e-05}"},
	} {
		if c.got != c.want {
			t.Errorf("%s = %s, want %s", c.name, c.got, c.want)
		}
	}
}
