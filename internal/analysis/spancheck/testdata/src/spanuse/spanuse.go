// Package spanuse is the spancheck fixture for the metric-name contract.
package spanuse

import "obs"

// goodPrefix is a named constant: still compile-time checkable.
const goodPrefix = "engine.indexes_built"

// Register exercises legal and illegal metric names.
func Register(r *obs.Registry, dynamic string) {
	r.Counter("server.requests")
	r.Counter(goodPrefix)
	r.Gauge("fragcache.bytes")
	r.Histogram("pdms.query_seconds")
	r.RegisterHistogram("server.request_seconds", nil)
	r.RegisterGroup("wire", func(em *obs.Emitter) {
		em.Counter("rows_fetched", 1)
		em.Gauge("max_frame_bytes", 2)
		em.Counter("Bad_Case", 3) // want "violates the lowercase-dotted naming contract"
		em.Gauge("trailing.", 4)  // want "violates the lowercase-dotted naming contract"
	})
	r.Counter("Server.Requests")    // want "violates the lowercase-dotted naming contract"
	r.Counter("server..requests")   // want "violates the lowercase-dotted naming contract"
	r.Counter("9starts.with.digit") // want "violates the lowercase-dotted naming contract"
	r.Counter(dynamic)              // want "must be a compile-time string constant"
	r.Counter("prefix." + dynamic)  // want "must be a compile-time string constant"
	r.RegisterGroup(dynamic, nil)   // want "must be a compile-time string constant"
}
