package main

// digests are the committed pass digests per workload and seed: SHA-256
// over every op's virtual outputs in canonical op order (see
// appendOutcome; fleet-scale hashes the rendered report). Seed 1 is the
// default; seed 2 is held out, so a claim can be re-checked on a seed
// nobody tuned against. A run at any other seed requires every pass to
// reproduce its first. Each run prints its digest on standard error.
//
// The matrix-cold and commuter-delta digests do not depend on the seed:
// it orders their ops, and commuter's dirty step, which it also seeds,
// leaves the commuter app's outputs unchanged at seeds 1 and 2.
var digests = map[string]map[int64]string{
	"matrix-cold": {
		1: "f1548cf1d3385c399406ba6d183bf8aa2b5bcc77aca437fb9c2a6b75b43ca2d0",
		2: "f1548cf1d3385c399406ba6d183bf8aa2b5bcc77aca437fb9c2a6b75b43ca2d0",
	},
	"commuter-delta": {
		1: "f9ee6eb3e2a91a31277a2d40bd68dfe5a109153701d302323b727404315860cb",
		2: "f9ee6eb3e2a91a31277a2d40bd68dfe5a109153701d302323b727404315860cb",
	},
	"session-record": {
		1: "90f9c0d1aec4a6d3ebdf079f0c50afef36f9f5dec62dccb63bb71159a3785a19",
		2: "3544e5d10d1de56b709cb2cfef4fc746231edb8a679382039a74747e62744337",
	},
	"fleet-scale": {
		1: "01c55b458d67f3583c927d2510917f59dbeee3167a794c8b5a6767ff0a860da2",
		2: "c84722278c90da3ddd21a82b6859692180918d5ef3a6096b6f4200157cb3291d",
	},
}
