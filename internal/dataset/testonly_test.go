package dataset

// Only tests call the functions in this file: no binary links them, so
// they are test helpers, kept beside the tests that check them until
// those tests are retired with them.

// SplitReviews splits reviews into train/test by fraction trainFrac.
func SplitReviews(rs []Review, trainFrac float64) (train, test []Review) {
	cut := int(float64(len(rs)) * trainFrac)
	return rs[:cut], rs[cut:]
}

// SplitRecords splits records into train/test by fraction trainFrac.
func SplitRecords(rs []Record, trainFrac float64) (train, test []Record) {
	cut := int(float64(len(rs)) * trainFrac)
	return rs[:cut], rs[cut:]
}
