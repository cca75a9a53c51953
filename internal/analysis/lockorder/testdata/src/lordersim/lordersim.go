// Package lordersim has no backend directive, so it runs on the
// simulated backend and lockorder checks nothing — but a seqlock
// directive here marks nothing and must be called out.
package lordersim

//natlevet:seqlock
func notNative() {} // want `outside a //natlevet:backend native package`
