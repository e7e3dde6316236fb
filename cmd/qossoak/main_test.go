package main

import (
	"flag"
	"io"
	"reflect"
	"strings"
	"testing"

	"deadlineqos/internal/soak"
	"deadlineqos/internal/units"
)

// TestReplayRecipeRoundTrip fails an epoch on purpose and parses the
// replay recipe it prints back through qossoak's own flag definitions:
// the recipe must rebuild exactly the failed epoch's config. Every option
// is off its flag default, the counts include a zero, and the windows are
// not whole microseconds, so a dropped option or a rounded duration shows.
func TestReplayRecipeRoundTrip(t *testing.T) {
	opt := soak.Options{
		Seed: 9, Epochs: 2, FirstEpoch: 3, Shards: 1, Load: 0.65,
		WarmUp: 200*units.Microsecond + 7, Measure: 2*units.Millisecond + 333,
		SwitchFaults: 0, Flaps: 1, Derates: 4,
		Policy: "value-drop", Coflows: true, Rogues: 1, Forges: 1, Police: true,
		InjectFailure: true,
	}
	_, err := soak.Run(opt)
	if err == nil {
		t.Fatal("InjectFailure soak returned nil error")
	}
	_, recipe, ok := strings.Cut(err.Error(), "replay: go run ./cmd/qossoak ")
	if !ok {
		t.Fatalf("error carries no replay recipe: %v", err)
	}
	fs := flag.NewFlagSet("qossoak", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	opts := optionFlags(fs)
	if err := fs.Parse(strings.Fields(recipe)); err != nil {
		t.Fatalf("recipe %q does not parse: %v", recipe, err)
	}
	replay := opts()
	if replay.FirstEpoch != opt.FirstEpoch || replay.Epochs != 1 {
		t.Fatalf("recipe %q replays epochs [%d, %d), want [%d, %d)", recipe,
			replay.FirstEpoch, replay.FirstEpoch+replay.Epochs, opt.FirstEpoch, opt.FirstEpoch+1)
	}
	want := soak.EpochConfig(opt, opt.FirstEpoch)
	if got := soak.EpochConfig(replay, replay.FirstEpoch); !reflect.DeepEqual(got, want) {
		t.Errorf("recipe %q rebuilds a different epoch config:\n got %+v\nwant %+v", recipe, got, want)
	}
}
