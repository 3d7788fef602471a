//go:build !unix

package main

import "os"

// maxRSSKiB has no source outside unix; peak_rss_mb then reads 0 and the
// run is reported incorrect rather than silently unmeasured.
func maxRSSKiB(*os.ProcessState) int64 { return 0 }
