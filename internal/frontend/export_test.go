package frontend

// SAPipe hands the test pipeline builder to the external test package
// (frontend_test may import cluster; this package may not — cluster
// imports it).
var SAPipe = saPipe
