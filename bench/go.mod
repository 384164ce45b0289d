module github.com/scipioneer/smart/bench

go 1.22

require github.com/scipioneer/smart v0.0.0

replace github.com/scipioneer/smart => ../
