// Command lspappend feeds an append-only sequence log (.lsa): it copies
// sequences from a source database into the log — creating the log when
// absent — and optionally applies sliding-window expiry afterwards. It is
// the writer-side companion of lspmine -follow and of streaming sessions in
// general: ownership of the log's mutations (appends, window expiry) stays
// with one writer process while any number of followers tail it read-only.
//
// Usage:
//
//	lspappend -log stream.lsa -from db.lsq \
//	          [-start 0] [-count -1] [-window 0] [-sync] [-v]
//
// -start/-count select a slice of the source, so a script can replay a
// database into the log batch by batch (the replay-vs-batch differential
// tests and scripts/crash_recovery.sh stream mode drive it exactly that
// way). -window N expires all but the newest N live sequences after the
// append — the head moves through the log's sidecar, never rewriting the
// data file, and followers pick it up on their next advance. -sync fsyncs
// before exit for durability across power loss, not just process crash.
//
// Exit codes: 0 appended, 1 error, 2 usage.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/pattern"
	"repro/internal/seqdb"
)

func main() {
	logPath := flag.String("log", "", "append-only log to write (.lsa; created when absent)")
	fromPath := flag.String("from", "", "source database (.lsq, .lsq.gz, .lsa or a comma-separated shard set)")
	start := flag.Int("start", 0, "skip this many leading source sequences")
	count := flag.Int("count", -1, "append at most this many sequences (-1 = all remaining)")
	window := flag.Int("window", 0, "after appending, expire all but the newest N sequences (0 = keep everything)")
	sync := flag.Bool("sync", false, "fsync the log before exiting")
	verbose := flag.Bool("v", false, "print per-append progress")
	flag.Parse()

	if *logPath == "" || *fromPath == "" {
		flag.Usage()
		os.Exit(2)
	}
	if *start < 0 {
		fatal(fmt.Errorf("-start must be non-negative, got %d", *start))
	}
	src, err := seqdb.OpenAuto(*fromPath)
	if err != nil {
		fatal(err)
	}
	log, err := seqdb.OpenAppend(*logPath)
	if err != nil {
		fatal(err)
	}

	appended := 0
	err = src.Scan(func(id int, seq []pattern.Symbol) error {
		if id < *start || (*count >= 0 && appended >= *count) {
			return nil
		}
		abs, err := log.Append(seq)
		if err != nil {
			return err
		}
		appended++
		if *verbose {
			fmt.Fprintf(os.Stderr, "lspappend: source %d -> log %d (%d symbols)\n", id, abs, len(seq))
		}
		return nil
	})
	if err != nil {
		fatal(err)
	}
	if *window > 0 {
		if total := log.Total(); total-log.Start() > *window {
			if err := log.ExpireBefore(total - *window); err != nil {
				fatal(err)
			}
		}
	}
	if *sync {
		if err := log.Sync(); err != nil {
			fatal(err)
		}
	}
	if err := log.Close(); err != nil {
		fatal(err)
	}
	fmt.Printf("lspappend: appended %d sequences to %s (total %d, live %d)\n",
		appended, *logPath, log.Total(), log.Len())
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "lspappend:", err)
	os.Exit(1)
}
