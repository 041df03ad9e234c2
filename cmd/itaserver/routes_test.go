package main

import "net/http"

// postQuery and queryByID reach the engine server's public handlers
// without going through the mux.
func (s *server) postQuery(w http.ResponseWriter, r *http.Request) {
	publicRoutes{newEngineAPI(s.eng)}.postQuery(w, r)
}

func (s *server) queryByID(w http.ResponseWriter, r *http.Request) {
	publicRoutes{newEngineAPI(s.eng)}.queryByID(w, r)
}
