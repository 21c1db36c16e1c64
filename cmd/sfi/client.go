package main

// The sfi campaign-service client verbs: `sfi submit`, `sfi status`,
// `sfi report` and `sfi cancel` talk to a running sfi-server, so the same
// binary that runs local campaigns also drives the persistent service.

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"time"

	"sfi/internal/dist"
	"sfi/internal/server"
)

// clientMain dispatches the service verbs; reports false when argv names
// no verb and the classic local-campaign path should run instead.
func clientMain(args []string) (bool, error) {
	if len(args) == 0 {
		return false, nil
	}
	switch args[0] {
	case "submit":
		return true, clientSubmit(args[1:])
	case "status":
		return true, clientStatus(args[1:])
	case "report":
		return true, clientReport(args[1:])
	case "cancel":
		return true, clientCancel(args[1:])
	}
	return false, nil
}

func clientSubmit(args []string) error {
	fs := flag.NewFlagSet("sfi submit", flag.ExitOnError)
	var (
		serverURL = fs.String("server", "http://localhost:8440", "campaign server base URL")
		tenant    = fs.String("tenant", "", "tenant the campaign is scheduled under (fair-share weight; empty = default)")
		keep      = fs.Bool("keep-results", false, "retain per-injection results in the report")
		shardSize = fs.Int("shard-size", 0, "injections per shard (0 = server default)")
		wait      = fs.Bool("wait", false, "poll until the campaign settles and print the final record")
	)
	campaign := dist.CampaignFlags(fs, 10000)
	fs.Parse(args) //nolint:errcheck // ExitOnError

	spec := server.Spec{Tenant: *tenant, ShardSize: *shardSize}
	var err error
	if spec.Campaign, err = campaign(); err != nil {
		return err
	}
	spec.Campaign.KeepResults = *keep
	body, err := json.Marshal(spec)
	if err != nil {
		return err
	}
	resp, err := http.Post(*serverURL+"/v1/campaigns", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	var c server.Campaign
	if err := decodeClient(resp, http.StatusCreated, &c); err != nil {
		return err
	}
	if !*wait {
		return printJSON(c)
	}
	for c.State == server.StateQueued || c.State == server.StateRunning {
		time.Sleep(250 * time.Millisecond)
		r, err := http.Get(*serverURL + "/v1/campaigns/" + c.ID)
		if err != nil {
			return err
		}
		if err := decodeClient(r, http.StatusOK, &c); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "\r%s: %-60s", c.ID, c.State)
	}
	fmt.Fprintln(os.Stderr)
	return printJSON(c)
}

func clientStatus(args []string) error {
	fs := flag.NewFlagSet("sfi status", flag.ExitOnError)
	serverURL := fs.String("server", "http://localhost:8440", "campaign server base URL")
	fs.Parse(args) //nolint:errcheck
	url := *serverURL + "/v1/status"
	if id := fs.Arg(0); id != "" {
		url = *serverURL + "/v1/campaigns/" + id + "/status"
	}
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	var v json.RawMessage
	if err := decodeClient(resp, http.StatusOK, &v); err != nil {
		return err
	}
	return printJSON(v)
}

func clientReport(args []string) error {
	fs := flag.NewFlagSet("sfi report", flag.ExitOnError)
	var (
		serverURL = fs.String("server", "http://localhost:8440", "campaign server base URL")
		jsonOut   = fs.Bool("json", false, "emit the stored report document as JSON")
	)
	fs.Parse(args) //nolint:errcheck
	id := fs.Arg(0)
	if id == "" {
		return fmt.Errorf("usage: sfi report [-server URL] <campaign-id>")
	}
	resp, err := http.Get(*serverURL + "/v1/campaigns/" + id + "/report")
	if err != nil {
		return err
	}
	var doc server.ReportDoc
	if err := decodeClient(resp, http.StatusOK, &doc); err != nil {
		return err
	}
	if *jsonOut {
		return printJSON(doc)
	}
	rep, err := doc.Report.Report()
	if err != nil {
		return err
	}
	if doc.StoppedEarly {
		fmt.Printf("campaign stopped early at %d injections\n", rep.Total)
	}
	fmt.Print(rep)
	printConvergence(doc.Convergence)
	return nil
}

func clientCancel(args []string) error {
	fs := flag.NewFlagSet("sfi cancel", flag.ExitOnError)
	serverURL := fs.String("server", "http://localhost:8440", "campaign server base URL")
	fs.Parse(args) //nolint:errcheck
	id := fs.Arg(0)
	if id == "" {
		return fmt.Errorf("usage: sfi cancel [-server URL] <campaign-id>")
	}
	req, err := http.NewRequest(http.MethodDelete, *serverURL+"/v1/campaigns/"+id, nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		return clientError(resp)
	}
	fmt.Println("cancelled", id)
	return nil
}

// decodeClient checks the status code and decodes the JSON body.
func decodeClient(resp *http.Response, want int, v any) error {
	defer resp.Body.Close()
	if resp.StatusCode != want {
		return clientError(resp)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// clientError surfaces the server's {"error": ...} body.
func clientError(resp *http.Response) error {
	var e struct {
		Error string `json:"error"`
	}
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	if json.Unmarshal(body, &e) == nil && e.Error != "" {
		return fmt.Errorf("server: %s (%s)", e.Error, resp.Status)
	}
	return fmt.Errorf("server: %s: %s", resp.Status, bytes.TrimSpace(body))
}

func printJSON(v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(data))
	return nil
}
