package main

import (
	"fmt"
	"path/filepath"
	"time"

	"asyncio/internal/campaign/store"
	"asyncio/internal/hdf5"
	"asyncio/internal/recovery"
	"asyncio/internal/vclock"
)

// patterned returns n bytes that are neither constant nor compressible
// to nothing, so checksums and copies see ordinary data.
func patterned(n int) []byte {
	b := make([]byte, n)
	x := uint32(2463534242)
	for i := range b {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		b[i] = byte(x)
	}
	return b
}

func storeProbes() []probe {
	return []probe{
		{"recovery.frame", func(l *ledger) error {
			// The checksummed record framing shared by the point store and
			// the journal, on 64 KiB payloads.
			const n = 2000
			payload := patterned(64 << 10)
			var frame []byte
			enc, _ := measure(func() error {
				for i := 0; i < n; i++ {
					frame = recovery.AppendFrame(frame[:0], payload)
				}
				return nil
			})
			dec, err := measure(func() error {
				for i := 0; i < n; i++ {
					if _, _, err := recovery.DecodeFrame(frame); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
			l.put("recovery.frame_append.mb_per_s", "MB/s", enc.mbPerS(int64(n*len(payload))))
			l.put("recovery.frame_decode.mb_per_s", "MB/s", dec.mbPerS(int64(n*len(payload))))
			return nil
		}},
		{"recovery.journal", func(l *ledger) error {
			// Write-ahead records with 64-byte payloads appended, then the
			// journal scanned against an image that holds exactly them.
			const n, elems = 5000, 16
			image := patterned(n * elems * 4)
			st := hdf5.NewMemStore()
			f, err := hdf5.Create(st)
			if err != nil {
				return err
			}
			g, err := f.Root().CreateGroup(nil, "g")
			if err != nil {
				return err
			}
			ds, err := g.CreateDataset(nil, "d", hdf5.F32, hdf5.MustSimple(n*elems), nil)
			if err != nil {
				return err
			}
			if err := ds.Write(nil, nil, image); err != nil {
				return err
			}
			if err := f.Close(nil); err != nil {
				return err
			}
			j := recovery.NewJournal(recovery.DefaultCost())
			app, err := measure(func() error {
				return onClock(func(p *vclock.Proc) error {
					for i := 0; i < n; i++ {
						rec := recovery.Record{Path: "/g/d", ElemSize: 4,
							Runs:    []recovery.Run{{Off: uint64(i * elems), N: elems}},
							Payload: image[i*elems*4 : (i+1)*elems*4]}
						if err := j.Append(p, &rec); err != nil {
							return err
						}
					}
					return nil
				})
			})
			if err != nil {
				return err
			}
			var rep *recovery.Report
			scan, _ := measure(func() error {
				rep = recovery.Scan(j.Bytes(), st, recovery.ScanOptions{})
				return nil
			})
			if rep.Committed != n {
				return fmt.Errorf("scan: %s, want %d committed", rep.Summary(), n)
			}
			l.put("recovery.journal_append.ns_per_record", "ns", app.nsPer(n))
			l.put("recovery.scan.ns_per_record", "ns", scan.nsPer(n))
			return nil
		}},
		{"store", func(l *ledger) error {
			// The durable point store end to end with bundle-sized values:
			// write-behind puts, one explicit flush, reads back from the
			// segments, compaction, and the recovery scan of a reopen. The
			// background flusher is parked so each step is timed alone.
			const n, size = 128, 256 << 10
			opts := store.Options{Dir: filepath.Join(l.scratch, "probe-store"),
				FlushEvery: time.Hour, FlushBytes: 1 << 40}
			st, _, err := store.Open(opts)
			if err != nil {
				return err
			}
			val := patterned(size)
			keys := make([]string, n)
			for i := range keys {
				keys[i] = fmt.Sprintf("%016x/0", i)
			}
			total := int64(n * size)
			put, err := measure(func() error {
				for _, k := range keys {
					if err := st.Put(k, val); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				st.Close()
				return err
			}
			flush, err := measure(st.Flush)
			if err != nil {
				st.Close()
				return err
			}
			get, err := measure(func() error {
				for _, k := range keys {
					if _, ok, err := st.Get(k); err != nil || !ok {
						return fmt.Errorf("get %s: found=%v err=%v", k, ok, err)
					}
				}
				return nil
			})
			if err != nil {
				st.Close()
				return err
			}
			compact, err := measure(st.Compact)
			if err != nil {
				st.Close()
				return err
			}
			if err := st.Close(); err != nil {
				return err
			}
			var rep *store.RecoveryReport
			open, err := measure(func() error {
				st, rep, err = store.Open(opts)
				return err
			})
			if err != nil {
				return err
			}
			records := rep.Records
			if err := st.Close(); err != nil {
				return err
			}
			if records != n || !rep.Clean() {
				return fmt.Errorf("reopen recovered %d records (%s), want %d", records, rep.Summary(), n)
			}
			l.put("store.put.ns_per_op", "ns", put.nsPer(n))
			l.put("store.put.mb_per_s", "MB/s", put.mbPerS(total))
			l.put("store.flush.mb_per_s", "MB/s", flush.mbPerS(total))
			l.put("store.get.us_per_op", "us", get.nsPer(n)/1e3)
			l.put("store.compact.mb_per_s", "MB/s", compact.mbPerS(total))
			l.put("store.open_scan.mb_per_s", "MB/s", open.mbPerS(total))
			return nil
		}},
	}
}
