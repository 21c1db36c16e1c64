package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"sfi"
	"sfi/internal/dist"
	"sfi/internal/server"
)

// campaignServer is an sfi-server on loopback over a fresh store.
func campaignServer(t *testing.T) (*server.Server, string, string) {
	t.Helper()
	dir := t.TempDir()
	s, err := server.New(server.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)
	return s, srv.URL, dir
}

// TestSubmitSpeaksTheWholeSpec: sfi submit takes the campaign flags sfi and
// sfi-coord take, so a fault model and an allocation the server has always
// been able to run can be asked of it, and the campaign runs to a report.
func TestSubmitSpeaksTheWholeSpec(t *testing.T) {
	s, url, _ := campaignServer(t)
	stdout := os.Stdout
	null, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer null.Close()
	os.Stdout = null // the verb prints the campaign record
	err = clientSubmit([]string{"-server", url, "-wait", "-flips", "96", "-seed", "5",
		"-allocate", "neyman", "-alloc-epochs", "2", "-sticky", "-duration", "50"})
	os.Stdout = stdout
	if err != nil {
		t.Fatal(err)
	}
	list := s.List()
	if len(list) != 1 {
		t.Fatalf("server holds %d campaigns, want the one submitted", len(list))
	}
	c := list[0]
	got := c.Spec.Campaign
	if want := (sfi.AllocConfig{Mode: sfi.AllocNeyman, Epochs: 2}); got.Alloc != want {
		t.Errorf("campaign arrived with alloc %+v, want %+v", got.Alloc, want)
	}
	if got.Runner.Mode != sfi.Sticky || got.Runner.StickyCycles != 50 {
		t.Errorf("campaign arrived with mode %v for %d cycles, want sticky for 50", got.Runner.Mode, got.Runner.StickyCycles)
	}
	if c.State != server.StateDone || c.Injections != 96 {
		t.Errorf("campaign settled %s after %d injections (%s), want done after 96", c.State, c.Injections, c.Error)
	}
}

// TestSubmitRefusedBeforeItIsRecorded: a spec CampaignSpec.Validate refuses
// is a 400 at the door, with no campaign record, nothing queued and nothing
// in the store. (An unknown allocation mode used to be a 201 that failed
// later, inside the coordinator.)
func TestSubmitRefusedBeforeItIsRecorded(t *testing.T) {
	s, url, dir := campaignServer(t)
	spec := dist.CampaignSpec{Runner: sfi.DefaultRunnerConfig(), Seed: 1, Flips: 64}
	spec.Alloc.Mode = "bogus"
	want := spec.Validate()
	if want == nil {
		t.Fatal("Validate accepts an unknown allocation mode")
	}
	post, err := json.Marshal(server.Spec{Campaign: spec})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/campaigns", "application/json", bytes.NewReader(post))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !bytes.Contains(body, []byte(`unknown allocation mode \"bogus\"`)) {
		t.Errorf("POST answered %d %s, want 400 saying what Validate says (%v)", resp.StatusCode, body, want)
	}
	if n, depth := len(s.List()), s.Status().QueueDepth; n != 0 || depth != 0 {
		t.Errorf("refused submission left %d campaign records and %d queued", n, depth)
	}
	if files, _ := filepath.Glob(filepath.Join(dir, "campaigns", "*")); len(files) != 0 {
		t.Errorf("refused submission left %v in the store", files)
	}
	// The same spec, the same words, from the CLI's side of the door.
	if _, err := dist.NewCoordinator(dist.CoordConfig{Campaign: spec}); err == nil || err.Error() != want.Error() {
		t.Errorf("NewCoordinator says %v, Validate %v", err, want)
	}
}

// TestFrontDoorsShareCampaignFlags execs the three commands that take a
// campaign and requires each one's -h to list every flag dist.CampaignFlags
// registers, under the same help text: a campaign flag added to one front
// door and not the others fails here. SFI_BIN names a directory of built
// binaries (`make smoke` passes ./bin); without it the test builds its own.
func TestFrontDoorsShareCampaignFlags(t *testing.T) {
	bin := os.Getenv("SFI_BIN")
	if bin == "" {
		bin = t.TempDir()
		if out, err := exec.Command("go", "build", "-o", bin, "sfi/cmd/sfi", "sfi/cmd/sfi-coord").CombinedOutput(); err != nil {
			t.Fatalf("go build: %v\n%s", err, out)
		}
	}
	fs := flag.NewFlagSet("campaign", flag.ContinueOnError)
	dist.CampaignFlags(fs, 1)
	for _, door := range [][]string{{"sfi"}, {"sfi-coord"}, {"sfi", "submit"}} {
		// -h exits 0 from flag.CommandLine and 2 from a FlagSet of its own;
		// either way the usage is on stderr.
		out, _ := exec.Command(filepath.Join(bin, door[0]), append(door[1:], "-h")...).CombinedOutput()
		fs.VisitAll(func(f *flag.Flag) {
			if !bytes.Contains(out, []byte("\n  -"+f.Name+" ")) && !bytes.Contains(out, []byte("\n  -"+f.Name+"\n")) {
				t.Errorf("%v -h does not list -%s", door, f.Name)
			} else if !bytes.Contains(out, []byte("\n    \t"+f.Usage)) {
				t.Errorf("%v -h describes -%s differently from %q", door, f.Name, f.Usage)
			}
		})
	}
}
