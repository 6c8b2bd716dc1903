// Package freejoin is a from-scratch implementation of Rosenthal &
// Galindo-Legaria, "Query Graphs, Implementing Trees, and
// Freely-Reorderable Outerjoins" (SIGMOD 1990): query graphs for
// join/outerjoin queries, implementing trees and their basic transforms,
// the free-reorderability theorem as a decision procedure, the §4
// restriction simplification, the §5 UnNest/Link language, and the §6.2
// generalized outerjoin — together with the storage, execution and
// cost-based optimization substrate needed to reproduce the paper's
// examples end to end.
//
// The root package carries the repository-level tests: the end-to-end
// pipeline, the reachability ratchet, the check that every section of
// EXPERIMENTS.md cites the tests behind its claim, and the planner's
// miss and hit benchmarks. The library lives under internal/ (see
// README.md for the map), its runnable examples in its packages'
// Example functions, and the programs under cmd/.
package freejoin
