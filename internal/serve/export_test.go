package serve

// DecodeAnswer runs the strict reader over a 200 query body of the
// given kind ("cc", "bfs" or "sssp"), decoding the array too, for the
// external tests.
func DecodeAnswer(kind string, raw []byte) (any, error) {
	switch kind {
	case "cc":
		out := new(CCResponse)
		return out, decodeAnswer(raw, "labels", answerHeadRoom, out, &out.Labels)
	case "bfs":
		out := new(BFSResponse)
		return out, decodeAnswer(raw, "dist", answerHeadRoom, out, &out.Dist)
	default:
		out := new(SSSPResponse)
		return out, decodeAnswer(raw, "dist", answerHeadRoom, out, &out.Dist)
	}
}

// VerifyAnswer runs the strict reader over a 200 query body the way
// ShardClient's query method of that kind does, keeping no element of
// the array, and returns the head it decoded.
func VerifyAnswer(kind string, raw []byte) (any, error) {
	switch kind {
	case "cc":
		out := new(CCResponse)
		return out, decodeAnswer[uint32](raw, "labels", answerHeadRoom, out, nil)
	case "bfs":
		out := new(BFSResponse)
		return out, decodeAnswer[uint32](raw, "dist", answerHeadRoom, out, nil)
	default:
		out := new(SSSPResponse)
		return out, decodeAnswer[uint64](raw, "dist", answerHeadRoom, out, nil)
	}
}

// EncodeAnswer runs the encoder every served answer goes through over
// a *CCResponse, *BFSResponse or *SSSPResponse, for the external tests.
func EncodeAnswer(v any) ([]byte, error) { return v.(answer).Body() }
