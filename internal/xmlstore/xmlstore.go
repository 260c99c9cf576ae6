// Package xmlstore is a native XML store: named, immutable XML documents
// served to the XQuery engine's document() function. It realizes the
// paper's third architectural variation (policies stored natively as XML
// and queried with XQuery), which the authors could not benchmark for lack
// of a public-domain native XML store — so we built one.
package xmlstore

import (
	"fmt"
	"sort"
	"sync"

	"p3pdb/internal/xmldom"
)

// Store holds named XML documents. It is safe for concurrent use.
type Store struct {
	mu   sync.RWMutex
	docs map[string]*xmldom.Node
}

// New returns an empty store.
func New() *Store {
	return &Store{docs: map[string]*xmldom.Node{}}
}

// Put stores a document under a name, replacing any previous document. The
// store clones the tree so later mutations by the caller cannot corrupt
// stored documents.
func (s *Store) Put(name string, doc *xmldom.Node) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.docs[name] = doc.Clone()
}

// PutShared stores a document under a name without copying it: the
// caller hands over a tree nothing mutates again, which every store it
// is put into may then share.
func (s *Store) PutShared(name string, doc *xmldom.Node) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.docs[name] = doc
}

// PutXML parses and stores an XML document.
func (s *Store) PutXML(name, src string) error {
	doc, err := xmldom.ParseString(src)
	if err != nil {
		return fmt.Errorf("xmlstore: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.docs[name] = doc
	return nil
}

// Get returns the named document's root element.
func (s *Store) Get(name string) (*xmldom.Node, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	doc, ok := s.docs[name]
	if !ok {
		return nil, fmt.Errorf("xmlstore: no document %q", name)
	}
	return doc, nil
}

// Delete removes a document; deleting a missing document is a no-op.
func (s *Store) Delete(name string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.docs, name)
}

// Names returns the stored document names, sorted.
func (s *Store) Names() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.docs))
	for n := range s.docs {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Len reports the number of stored documents.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.docs)
}

// Resolver returns a document-resolution function for the XQuery engine,
// with zero or more aliases overlaid: alias lookups hit the aliased name.
// The paper's generated queries reference document("applicable-policy");
// the matcher aliases that to the policy selected by the reference file.
func (s *Store) Resolver(aliases map[string]string) func(string) (*xmldom.Node, error) {
	return func(name string) (*xmldom.Node, error) {
		if target, ok := aliases[name]; ok {
			name = target
		}
		return s.Get(name)
	}
}
