module pretzel/benchmark

go 1.23

require pretzel v0.0.0

replace pretzel => ../
