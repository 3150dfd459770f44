package persist

// DiskListing is the Listing a directory scan gives: every snapshot and
// segment file with its size on disk, and the live segment at its last
// frame boundary. Tests hold Listing's bookkeeping to it.
func (s *Store) DiskListing() (Listing, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	snaps, wals, err := s.diskFiles()
	if err != nil {
		return Listing{}, err
	}
	out := Listing{NextLSN: s.nextLSN, Files: []FileInfo{}}
	for _, f := range append(snaps, wals...) {
		if f.Name == FileName(WALFile, s.seq) {
			f.Size = s.walBytes
		}
		out.Files = append(out.Files, f.FileInfo)
	}
	return out, nil
}
