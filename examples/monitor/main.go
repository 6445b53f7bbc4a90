// Monitor: evaluate watch queries continuously while a workflow engine is
// still writing the log — the "runtime execution monitoring" use the paper
// contrasts with offline ETL analysis (Figure 2).
//
// The program simulates an engine by handing a generated referral log to a
// wlq.Monitor. The monitor appends each Ingest batch as one new version of
// its store and evaluates each watch once on every workflow instance the
// batch extends, alerting at the exact record that first completed an
// incident — once per watch per instance, as if the records had arrived one
// at a time.
//
//	go run ./examples/monitor
package main

import (
	"fmt"
	"log"

	"wlq"
)

func main() {
	full, err := wlq.ClinicLog(300, 23)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("replaying %d records from %d referral instances\n\n", full.Len(), len(full.WIDs()))

	shown := map[string]bool{}
	monitor := wlq.NewMonitor(func(a wlq.Alert) {
		// Print only the first alert per watch to keep the demo readable;
		// the monitor itself tracks every instance.
		if !shown[a.Watch] {
			shown[a.Watch] = true
			fmt.Printf("first alert: %s\n", a)
		}
	})

	watches := []struct{ name, query string }{
		{"post-reimbursement update (possible fraud)", "GetReimburse -> UpdateRefer"},
		{"three doctor visits in one referral", "SeeDoctor -> SeeDoctor -> SeeDoctor"},
		{"referral updated twice", "UpdateRefer -> UpdateRefer"},
		{"reimbursement with no payment ever", "CheckIn . SeeDoctor . GetReimburse"},
	}
	for _, w := range watches {
		if err := monitor.Watch(w.name, w.query); err != nil {
			log.Fatal(err)
		}
	}

	if err := monitor.IngestLog(full); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\nafter %d records, %d alerts total. instances per watch:\n",
		monitor.Records(), monitor.Alerts())
	for _, name := range monitor.WatchNames() {
		fmt.Printf("  %-50s %4d instance(s)\n", name, monitor.FiredInstances(name))
	}

	// The monitor also answers ad-hoc queries over everything seen so far.
	set, err := monitor.Query("GetRefer[balance>5000]")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nad-hoc query over the ingested log: %d high-balance referrals\n", set.Len())
}
