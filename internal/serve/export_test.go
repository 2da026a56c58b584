package serve

// DecodeAnswer runs the strict reader over a 200 query body the way
// ShardClient's query method of that kind ("cc", "bfs" or "sssp") does,
// for the external tests.
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

// EncodeAnswer runs the encoder every served answer goes through over
// a *CCResponse, *BFSResponse or *SSSPResponse, for the external tests.
func EncodeAnswer(v any) ([]byte, error) { return v.(answer).appendJSON(nil) }
