package machine_test

import (
	"strings"
	"testing"

	"nomap/internal/machine"
)

// TestEveryEventKindRenders: every kind of the one event enum has a name
// and its own rendering; none falls through to the "?" fallback.
func TestEveryEventKindRenders(t *testing.T) {
	for k := machine.EventKind(0); k < machine.NumEventKinds; k++ {
		name := k.String()
		if name == "" || name == "?" {
			t.Errorf("kind %d: name %q", k, name)
			continue
		}
		line := machine.Event{Kind: k}.String()
		if !strings.HasPrefix(line, "["+name+"]") && !strings.HasPrefix(line, name) {
			t.Errorf("kind %d (%s) renders %q", k, name, line)
		}
	}
	if got := machine.NumEventKinds.String(); got != "?" {
		t.Errorf("out-of-range kind named %q, want the ? fallback", got)
	}
	if got := (machine.Event{Kind: machine.NumEventKinds}).String(); got != "[?]" {
		t.Errorf("out-of-range event renders %q, want [?]", got)
	}
}
