// The table in this file is copied from the Go distribution's
// src/math/rand/rng.go, under the following notice:
//
// Copyright 2009 The Go Authors.
//
// Redistribution and use in source and binary forms, with or without
// modification, are permitted provided that the following conditions are
// met:
//
//    * Redistributions of source code must retain the above copyright
// notice, this list of conditions and the following disclaimer.
//    * Redistributions in binary form must reproduce the above
// copyright notice, this list of conditions and the following disclaimer
// in the documentation and/or other materials provided with the
// distribution.
//    * Neither the name of Google LLC nor the names of its
// contributors may be used to endorse or promote products derived from
// this software without specific prior written permission.
//
// THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
// "AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
// LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
// A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
// OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
// SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
// LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
// DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
// THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
// (INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
// OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.

package stream

// rngCookedTap and rngCookedFeed are entries 599–606 and 326–333 of
// math/rand's rngCooked table, the ones a fresh source's first drawRounds
// outputs read: output k reads rngCookedTap[7−k] and rngCookedFeed[7−k].
var (
	rngCookedTap = [drawRounds]int64{
		-758328221503023383, -1894351639983151068, -307900319840287220, -6278469401177312761,
		-2171292963361310674, 8382142935188824023, 9103922860780351547, 4152330101494654406,
	}
	rngCookedFeed = [drawRounds]int64{
		581945337509520675, 3648778920718647903, -4799698790548231394, -7602572252857820065,
		220828013409515943, -1072987336855386047, 4287360518296753003, -4633371852008891965,
	}
)
