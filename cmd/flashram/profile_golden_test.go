package main

import (
	"bytes"
	"flag"
	"fmt"
	"strings"
	"testing"
)

var updateProfile = flag.Bool("update-profile", false, "rewrite testdata/profile.golden from the current profile output")

const profileGolden = "testdata/profile.golden"

// TestProfileGolden pins `flashram profile` byte for byte, as the JSON
// document and as the text report, for an integer cell the ILP moves to
// RAM wholesale (int_matmult O2) and a soft-float cell it splits
// (float_matmult O2): the attribution profiles, the savers and the
// model-vs-measured diff. A deliberate change to the tracer, the cost
// model or the pipeline regenerates the file with -update-profile and
// says why.
func TestProfileGolden(t *testing.T) {
	var got bytes.Buffer
	for _, bench := range []string{"int_matmult", "float_matmult"} {
		for _, form := range [][]string{{"-json"}, nil} {
			args := append([]string{"profile", "-bench", bench, "-O", "O2"}, form...)
			stdout, stderr, code := runFlashram(t, args...)
			if code != 0 || stderr != "" {
				t.Fatalf("flashram %s: exit %d, stderr %q", strings.Join(args, " "), code, stderr)
			}
			fmt.Fprintf(&got, "$ flashram %s\n%s", strings.Join(args, " "), stdout)
		}
	}
	checkGolden(t, profileGolden, got.Bytes(), *updateProfile, "-update-profile")
}
