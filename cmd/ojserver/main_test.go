package main

import (
	"context"
	"io"
	"testing"

	"freejoin/internal/server"
)

// The -strategy and -batch-size flags and the session's "set strategy"
// and "set batch_size" parse each value with one function, so both
// front ends accept and reject the same values and store the same
// setting.
func TestSessionSettingFlagsParseLikeSet(t *testing.T) {
	core, err := server.NewCore(server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		flag, setting, val string
		ok                 bool
	}{
		{"-strategy", "strategy", "dp", true},
		{"-strategy", "strategy", "DP", true},
		{"-strategy", "strategy", "yannakakis", true},
		{"-strategy", "strategy", "Auto", true},
		{"-strategy", "strategy", "bogus", false},
		{"-strategy", "strategy", "", false},
		{"-batch-size", "batch_size", "1", true},
		{"-batch-size", "batch_size", "256", true},
		{"-batch-size", "batch_size", "default", true},
		{"-batch-size", "batch_size", "DEFAULT", true},
		{"-batch-size", "batch_size", "0", false},
		{"-batch-size", "batch_size", "-3", false},
		{"-batch-size", "batch_size", "off", false},
		{"-batch-size", "batch_size", "", false},
	} {
		cfg, _, ferr := parseFlags([]string{tc.flag, tc.val}, io.Discard)
		sess := server.NewSession(core)
		resp := sess.Exec(context.Background(), "set "+tc.setting+" "+tc.val)
		if (ferr == nil) != tc.ok || resp.OK != tc.ok {
			t.Errorf("%s %q: flag err %v, set %+v; want accepted = %v", tc.flag, tc.val, ferr, resp, tc.ok)
			continue
		}
		if !tc.ok {
			continue
		}
		// A session started from the flag's configuration reports the
		// setting as the session that ran "set" does.
		want := sess.Exec(context.Background(), "set").Output
		core2, err := server.NewCore(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := server.NewSession(core2).Exec(context.Background(), "set").Output; got != want {
			t.Errorf("%s %q: flag session shows\n%s\nset session shows\n%s", tc.flag, tc.val, got, want)
		}
	}
}
